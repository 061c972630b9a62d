"""Hessian-based adaptive sparse quadrature for Bayesian inverse problems.

The package covers the full pipeline on 1D PDE benchmarks: multi-index sets
and Gauss-Hermite difference rules, the adaptive sparse quadrature loop,
P1 finite elements, Gaussian priors and Laplace posteriors as spectral data,
adjoint-based MAP estimation, and the convergence experiments comparing
prior-based and Hessian-based parametrizations.
"""

from .multiindex import (
    BNuConfig,
    IndexSet,
    MultiIndex,
    ZERO_INDEX,
    b_coefficient,
)
from .quad1d import DifferenceRule, UnivariateRule, difference_rule, hermite_rule
from .sparse_quad import (
    AdaptConfig,
    Construction,
    Integrand,
    QuadratureResult,
    adapt,
    evaluate,
    tensor_delta,
)
from .fem1d import Mesh1D, assemble, solve_poisson
from .gaussian_measure import (
    EigenPairs,
    GaussianField,
    kl_map,
    prior_eigen_analytic,
    prior_eigen_numeric,
    randomized_eigen,
    rng_stream,
)
from .inverse_problem import (
    DarcyProblem,
    LinearPoissonProblem,
    MapResult,
    ObservationSetup,
    make_darcy_problem,
    make_linear_problem,
)
from .experiments import (
    ConvergenceRecord,
    ExperimentConfig,
    estimate_rate,
    mc_baseline,
    run_convergence,
)

__all__ = [
    "AdaptConfig",
    "BNuConfig",
    "Construction",
    "ConvergenceRecord",
    "DarcyProblem",
    "DifferenceRule",
    "EigenPairs",
    "ExperimentConfig",
    "GaussianField",
    "IndexSet",
    "Integrand",
    "LinearPoissonProblem",
    "MapResult",
    "Mesh1D",
    "MultiIndex",
    "ObservationSetup",
    "QuadratureResult",
    "UnivariateRule",
    "ZERO_INDEX",
    "adapt",
    "assemble",
    "b_coefficient",
    "difference_rule",
    "estimate_rate",
    "evaluate",
    "hermite_rule",
    "kl_map",
    "make_darcy_problem",
    "make_linear_problem",
    "mc_baseline",
    "prior_eigen_analytic",
    "prior_eigen_numeric",
    "randomized_eigen",
    "rng_stream",
    "run_convergence",
    "solve_poisson",
    "tensor_delta",
]
