"""Hessian-based adaptive sparse quadrature for Bayesian inverse problems.

The package covers the full pipeline on 1D PDE benchmarks: multi-index sets
and Gauss-Hermite difference rules, the adaptive sparse quadrature loop,
P1 finite elements, Gaussian priors and Laplace posteriors as spectral data,
adjoint-based MAP estimation, and the convergence experiments comparing
prior-based and Hessian-based parametrizations.

The package itself imports nothing; callers import its submodules
(``from hessquad import experiments``, ``from hessquad.sparse_quad import
adapt``).
"""
