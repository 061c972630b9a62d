"""Each benchmark check accepts the program's output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from hessquad import experiments  # noqa: E402
from hessquad.inverse_problem import hessian_reweighted_integrand  # noqa: E402

BUDGET = 50_000


@pytest.fixture(scope="module")
def linear_setup():
    cfg = experiments.ExperimentConfig.linear_default(mesh_exp=6, seed=1)
    return experiments.linear_setup(cfg)


@pytest.fixture(scope="module")
def darcy_setup():
    cfg = experiments.ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return experiments.darcy_setup(cfg)


def _power_law_trace(rate=0.5, reference=2.0):
    """A trace whose error decays exactly as n^-rate up to the budget."""
    n = np.unique(np.geomspace(3, BUDGET + 100, 400).astype(int))
    return n, reference + 0.3 * n ** (-rate), reference


# -- budget -------------------------------------------------------------------


def test_budget_accepts_a_run_that_used_its_budget():
    checks.check_budget(BUDGET + 17, "max_points", BUDGET)


def test_budget_rejects_an_estimate_at_a_tenth_of_the_budget():
    with pytest.raises(CheckFailed):
        checks.check_budget(BUDGET // 10, "max_points", BUDGET)
    with pytest.raises(CheckFailed):
        checks.check_budget(BUDGET, "tolerance", BUDGET)


# -- linear convergence and reference -------------------------------------------


def test_convergence_accepts_the_acceptance_rate():
    n, values, ref = _power_law_trace()
    assert checks.check_linear_convergence(n, values, ref, BUDGET) == pytest.approx(0.5)


def test_convergence_rejects_a_trace_cut_at_a_tenth_of_the_budget():
    n, values, ref = _power_law_trace()
    keep = n <= BUDGET // 10
    with pytest.raises(CheckFailed):
        checks.check_linear_convergence(n[keep], values[keep], ref, BUDGET)


@pytest.mark.parametrize("rate", [0.0, 0.25, 0.75])
def test_convergence_rejects_rates_outside_the_gate(rate):
    n, values, ref = _power_law_trace(rate)
    with pytest.raises(CheckFailed):
        checks.check_linear_convergence(n, values, ref, BUDGET)


def test_ladder_matches_the_program_checkpoints():
    from hessquad.sparse_quad import TraceRecord

    n, values, ref = _power_law_trace()
    trace = [TraceRecord(i, None, 0.0, i + 1, int(p), (v,)) for i, (p, v)
             in enumerate(zip(n, values))]
    cps = experiments._checkpoints_from_trace(trace, [(v,) for v in values], (ref,), BUDGET)
    assert [int(n[i]) for i in checks.ladder_checkpoints(n, BUDGET)] == [
        c.n_points for c in cps
    ]


def test_dense_reference_matches_the_spectral_reference(linear_setup):
    dense = checks.dense_linear_q1_reference(linear_setup.problem)
    spectral = experiments.linear_reference(linear_setup, "q1")
    checks.check_reference(spectral, dense)
    with pytest.raises(CheckFailed):
        checks.check_reference(spectral * (1 + 1e-5), dense)


# -- Darcy forward solves ---------------------------------------------------------


def _program_forward(setup, m):
    problem = setup.problem
    return problem.forward(m), problem.qoi()(m)


def test_forward_accepts_the_program_solution(darcy_setup):
    rng = np.random.default_rng(3)
    field = darcy_setup.posterior_field
    for m in checks.kl_sample(field, rng.standard_normal((4, field.truncation))):
        obs, center = _program_forward(darcy_setup, m)
        checks.check_darcy_forward(
            checks.cell_coefficients(m), obs, center, darcy_setup.problem.B
        )


def test_forward_rejects_a_solution_with_one_perturbed_coefficient(darcy_setup):
    problem = darcy_setup.problem
    k = checks.cell_coefficients(darcy_setup.map_result.map_point)
    wrong = k.copy()
    wrong[len(k) // 3] *= 1.01
    u = checks.darcy_closed_form(wrong)
    with pytest.raises(CheckFailed):
        checks.check_darcy_forward(k, problem.B @ u, u[len(k) // 2], problem.B)


# -- importance sampling ------------------------------------------------------------


def test_laplace_weights_match_the_program_integrand(darcy_setup):
    field = darcy_setup.posterior_field
    problem = darcy_setup.problem
    cost = darcy_setup.map_result.cost_at_map
    xi = np.random.default_rng(4).standard_normal((5, field.truncation))
    w, q = checks.laplace_weights(problem, field, cost, xi)
    g = hessian_reweighted_integrand(problem, field, cost, problem.qoi())
    for row, wi, qi in zip(xi, w, q):
        pw, pwq = g.fn({j + 1: x for j, x in enumerate(row)})
        assert wi == pytest.approx(pw, rel=1e-9)
        assert wi * qi == pytest.approx(pwq, rel=1e-9)


def test_is_check_accepts_its_own_estimate_and_rejects_a_ten_se_shift():
    rng = np.random.default_rng(5)
    w = np.exp(0.1 * rng.standard_normal(4000))
    q = 0.6 + 0.05 * rng.standard_normal(4000)
    est = checks.is_estimate(w, q)
    checks.check_against_is(est.z, est.mean, est)
    with pytest.raises(CheckFailed):
        checks.check_against_is(est.z + 10 * est.z_se, est.mean, est)
    with pytest.raises(CheckFailed):
        checks.check_against_is(est.z, est.mean - 10 * est.mean_se, est)


# -- prior-path bounds ---------------------------------------------------------------


def test_prior_bounds():
    checks.check_prior_bounds(1e-17, 0.69)
    for z, mean in ((0.0, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 1.1), (0.5, math.nan)):
        with pytest.raises(CheckFailed):
            checks.check_prior_bounds(z, mean)
