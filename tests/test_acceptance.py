"""Acceptance suite: the benchmark targets this package commits to.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The expensive runs (full-budget quadrature studies on the
2^-10 mesh) are shared through module-scoped fixtures; the whole suite is a
few minutes on a laptop.
"""

import itertools
import math

import numpy as np
import pytest

from hessquad.experiments import (
    ExperimentConfig,
    darcy_setup,
    linear_setup,
    mc_baseline,
    run_darcy,
    run_linear,
)
from hessquad.gaussian_measure import GaussianField, kl_map, rng_stream
from hessquad.inverse_problem import NewtonConfig, make_darcy_problem, make_linear_problem
from hessquad.multiindex import IndexSet, MultiIndex
from hessquad.quad1d import hermite_rule
from hessquad.sparse_quad import Integrand, evaluate


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs (seed 0, mesh 2^-10, a posteriori construction)
# ---------------------------------------------------------------------------


def _linear_run(alpha, qoi, mode, max_points, mesh_exp=10):
    cfg = ExperimentConfig.linear_default(
        alpha=alpha, qoi=qoi, mode=mode, construction="aposteriori",
        mesh_exp=mesh_exp, seed=0, max_points=max_points,
    )
    return run_linear(cfg)


@pytest.fixture(scope="module")
def lin_q1_a1():
    return _linear_run(1, "q1", "hessian", 50_000)


@pytest.fixture(scope="module")
def lin_q1_a2():
    return _linear_run(2, "q1", "hessian", 20_000)


@pytest.fixture(scope="module")
def lin_q2_a1():
    return _linear_run(1, "q2", "hessian", 20_000)


@pytest.fixture(scope="module")
def lin_q2_a2():
    return _linear_run(2, "q2", "hessian", 20_000)


@pytest.fixture(scope="module")
def darcy_shared():
    cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=100_000,
    )
    setup = darcy_setup(cfg)
    hessian = run_darcy(cfg, setup)
    prior_cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=10_000, mode="prior",
    )
    prior = run_darcy(prior_cfg, setup)
    return setup, hessian, prior


# ---------------------------------------------------------------------------
# criteria 1-2: linear convergence rates vs the number of quadrature points
# ---------------------------------------------------------------------------


def test_criterion_1_linear_q1_rates(lin_q1_a1, lin_q1_a2):
    r1 = lin_q1_a1.record.rates[0]
    r2 = lin_q1_a2.record.rates[0]
    ok = abs(r1 - 0.5) <= 0.2 and abs(r2 - 1.5) <= 0.3
    check(
        "criterion 1 (linear Q1 rates, a posteriori Hessian-based)",
        ok,
        f"alpha=1: s={r1:.3f} (target 0.5+-0.2); alpha=2: s={r2:.3f} (target 1.5+-0.3)",
    )


def test_criterion_2_linear_q2_rates(lin_q2_a1, lin_q2_a2):
    r1 = lin_q2_a1.record.rates[0]
    r2 = lin_q2_a2.record.rates[0]
    ok = abs(r1 - 1.5) <= 0.3 and abs(r2 - 2.5) <= 0.3
    check(
        "criterion 2 (linear Q2 rates)",
        ok,
        f"alpha=1: s={r1:.3f} (target 1.5+-0.3); alpha=2: s={r2:.3f} (target 2.5+-0.3)",
    )


# ---------------------------------------------------------------------------
# criterion 3: prior-based quadrature failure at equal budget
# ---------------------------------------------------------------------------


def test_criterion_3_prior_failure(lin_q1_a1, lin_q2_a1):
    budget = 10_000
    details = []
    ok = True
    for qoi, hess in (("q1", lin_q1_a1), ("q2", lin_q2_a1)):
        prior = _linear_run(1, qoi, "prior", budget)
        hess_err = next(
            c.abs_error[0]
            for c in reversed(hess.record.checkpoints)
            if c.n_points <= budget
        )
        prior_err = prior.record.checkpoints[-1].abs_error[0]
        ratio = prior_err / hess_err
        ok = ok and ratio >= 10.0
        details.append(f"{qoi}: prior/hessian error ratio {ratio:.1f}x")
    check("criterion 3 (prior-based failure, >=10x)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: Monte Carlo baseline rates
# ---------------------------------------------------------------------------


def test_criterion_4_mc_baseline():
    details = []
    ok = True
    for alpha in (1, 2):
        cfg = ExperimentConfig.linear_default(
            alpha=alpha, qoi="q1", mesh_exp=10, seed=0, max_points=10_000
        )
        rec = mc_baseline(cfg, n_trials=100)
        ok = ok and abs(rec.rates[0] - 0.5) <= 0.15
        details.append(f"alpha={alpha}: s={rec.rates[0]:.3f}")
    check("criterion 4 (MC baseline, 0.5+-0.15)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 5: Darcy rates against the 10x-budget self-reference
# ---------------------------------------------------------------------------


def test_criterion_5_darcy(darcy_shared):
    setup, hessian, prior = darcy_shared
    rates = hessian.record.rates
    hess_ok = all(abs(r - 1.0) <= 0.3 for r in rates)

    prior_errs = np.array([c.abs_error[1] for c in prior.record.checkpoints])
    n = prior.record.n_points()
    trailing = n >= math.sqrt(n.min() * n.max())
    tail = prior_errs[trailing]
    scale = max(tail.max(), 1e-12)
    nondecreasing = bool(np.all(np.diff(tail) >= -1e-3 * scale))

    # the substantive failure signal: the frozen prior-based ratio estimate is
    # far from the Hessian-based value at matched truncation
    hess_ratio = hessian.reference[1] / hessian.reference[0]
    prior_ratio = prior.reference[1] / prior.reference[0]
    hess_final_err = max(hessian.record.checkpoints[-1].abs_error)
    discrepancy = abs(prior_ratio - hess_ratio)
    ok = hess_ok and nondecreasing and discrepancy > 10 * hess_final_err
    check(
        "criterion 5 (Darcy, a posteriori)",
        ok,
        f"hessian rates {tuple(round(r, 3) for r in rates)} (target 1.0+-0.3); "
        f"prior trailing errors non-decreasing: {nondecreasing}; "
        f"prior-vs-hessian QoI discrepancy {discrepancy:.2e} "
        f"(hessian self-error {hess_final_err:.2e})",
    )


# ---------------------------------------------------------------------------
# criterion 6: eigenvalue reduction
# ---------------------------------------------------------------------------


def test_criterion_6_eigenvalue_reduction(darcy_shared):
    # linear problem: closed-form spectra over every mode, plus the tail
    # ratio -> 1 check on the last decade of indices
    cfg = ExperimentConfig.linear_default(mesh_exp=10, seed=0)
    s = linear_setup(cfg)
    p = s.problem
    J = p.mesh.n_interior
    lam0 = p.prior_pairs(J).values
    tilde = np.array([p.misfit_eigenvalue_analytic(j) for j in range(1, J + 1)])
    lam1 = lam0 / (1.0 + tilde)
    linear_ok = bool(np.all(lam1 <= lam0))
    tail = slice(int(0.9 * J), J)
    ratio_ok = bool(np.all(lam1[tail] / lam0[tail] > 0.99))

    # Darcy: the computed spectra come from two independent randomized
    # sketches whose trailing accuracy is ~1e-6 relative, so the comparison
    # carries that slack; the operator-level inequality C1 <= C0 is verified
    # exactly on random vectors (the retained misfit curvatures are positive,
    # so the covariance difference is PSD by construction).
    setup, _, _ = darcy_shared
    post = setup.posterior_field.pairs.values
    prior = setup.prior_field.pairs.values
    k = min(len(post), len(prior))
    darcy_ok = bool(np.all(post[:k] <= prior[:k] * (1 + 1e-5)))

    p = setup.problem
    res = setup.map_result
    mis = p.misfit_eigen(res, j1=64, rng=rng_stream(0, 11))
    keep = mis.values > 1e-2
    psi = mis.vectors[:, keep]
    d = mis.values[keep] / (1.0 + mis.values[keep])
    rng = rng_stream(6, 6)
    quad_ok = bool(np.all(d >= 0.0))
    for _ in range(20):
        v = rng.standard_normal(p.mesh.n_nodes)
        c0_quad = float(v @ p.apply_prior_precision_inv(v))
        c1_quad = c0_quad - float(np.sum(d * (psi.T @ v) ** 2))
        quad_ok = quad_ok and c1_quad <= c0_quad + 1e-14 * abs(c0_quad)
    ok = linear_ok and ratio_ok and darcy_ok and quad_ok
    check(
        "criterion 6 (eigenvalue reduction)",
        ok,
        f"linear all modes: {linear_ok}; linear tail ratio > 0.99: {ratio_ok}; "
        f"darcy {k} computed modes (1e-5 solver slack): {darcy_ok}; "
        f"darcy operator inequality on random vectors: {quad_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 7: two-step posterior spectrum vs the closed form at h = 2^-8
# ---------------------------------------------------------------------------


def test_criterion_7_posterior_spectrum_oracle():
    details = []
    ok = True
    for alpha in (1, 2):
        p = make_linear_problem(alpha=alpha, beta=5e-2, sigma=1e-2,
                                mesh_exp=8, seed=0)
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        num = p.posterior_eigen(
            res, 20, j1=48, cutoff=1e-7, oversampling=40, power_iters=3,
            rng=rng_stream(0, 5),
        )
        ana = p.posterior_pairs_analytic(20)
        rel = float(np.max(np.abs(num.values - ana.values) / ana.values))
        ok = ok and rel <= 1e-3
        details.append(f"alpha={alpha}: max rel {rel:.2e}")
    check("criterion 7 (posterior spectrum, rel 1e-3 top 20)", ok,
          "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: property suites
# ---------------------------------------------------------------------------


def test_criterion_8a_sparse_tensor_equivalence():
    rng = rng_stream(8, 1)
    worst = 0.0
    for levels in ((4,), (3, 2), (2, 2, 2)):
        coef = [rng.standard_normal(2 * l + 2) for l in levels]

        def poly(x):
            return float(
                np.prod([sum(c * xi**k for k, c in enumerate(cs))
                         for cs, xi in zip(coef, x)])
            )

        g = Integrand(
            fn=lambda points: [poly([xi.get(j + 1, 0.0) for j in range(len(levels))])
                               for xi in points],
            n_outputs=1,
        )
        members = [
            MultiIndex([(j + 1, l) for j, l in enumerate(ls) if l])
            for ls in itertools.product(*(range(l + 1) for l in levels))
        ]
        sparse = evaluate(IndexSet(members), g).value[0]
        rules = [hermite_rule(l) for l in levels]
        direct = 0.0
        for combo in itertools.product(*(range(len(r.nodes)) for r in rules)):
            w = 1.0
            x = []
            for r, k in zip(rules, combo):
                w *= r.weights[k]
                x.append(r.nodes[k])
            direct += w * poly(x)
        worst = max(worst, abs(sparse - direct) / max(1.0, abs(direct)))
    check("criterion 8a (sparse-tensor equivalence, 1e-12)", worst <= 1e-12,
          f"worst rel {worst:.2e}")


def test_criterion_8b_hermite_exactness():
    worst = 0.0
    for level in range(13):
        r = hermite_rule(level)
        for k in range(2 * level + 2):
            moment = 0.0 if k % 2 else float(np.prod(np.arange(k - 1, 0, -2)))
            approx = float(np.dot(r.weights, r.nodes**k))
            scale = max(1.0, float(np.dot(r.weights, np.abs(r.nodes) ** k)))
            worst = max(worst, abs(approx - moment) / scale)
    check("criterion 8b (Gauss-Hermite exactness, 1e-10)", worst <= 1e-10,
          f"worst scaled error {worst:.2e}")


@pytest.fixture(scope="module")
def darcy_small():
    return make_darcy_problem(mesh_exp=6, seed=0)


def test_criterion_8c_gradient_fd(darcy_small):
    p = darcy_small
    rng = rng_stream(8, 3)
    m = 0.2 * rng.standard_normal(p.mesh.n_nodes)
    g = p.gradient(m)
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(p.mesh.n_nodes)
        d /= np.linalg.norm(d)
        an = float(g @ d)
        best = min(
            abs((p.cost(m + h * d) - p.cost(m - h * d)) / (2 * h) - an)
            / max(abs(an), 1e-30)
            for h in (1e-3, 1e-4, 1e-5, 1e-6)
        )
        worst = max(worst, best)
    check("criterion 8c (gradient vs FD, 1e-5)", worst < 1e-5,
          f"worst rel {worst:.2e}")


def test_criterion_8d_hessian_fd(darcy_small):
    p = darcy_small
    rng = rng_stream(8, 4)
    m = 0.2 * rng.standard_normal(p.mesh.n_nodes)
    state = p._forward_state(m)
    worst = 0.0
    for _ in range(6):
        d = rng.standard_normal(p.mesh.n_nodes)
        d /= np.linalg.norm(d)
        Hd = p.hessian_action(m, d, state=state)
        best = min(
            np.linalg.norm(
                (p.gradient(m + h * d) - p.gradient(m - h * d)) / (2 * h) - Hd
            )
            / max(np.linalg.norm(Hd), 1e-30)
            for h in (1e-4, 1e-5, 1e-6)
        )
        worst = max(worst, best)
    check("criterion 8d (Hessian action vs FD, 1e-4)", worst < 1e-4,
          f"worst rel {worst:.2e}")


def test_criterion_8e_j1_flatness():
    # the quadratic model uses the full MAP Hessian (negative curvature
    # included), computed exactly via a full-space eigendecomposition on the
    # small mesh; directions with no measurable cubic must be flat outright
    p = make_darcy_problem(mesh_exp=7, seed=0)
    mp = p.find_map(cfg=NewtonConfig(tol=1e-12, abs_tol=1e-11, max_newton=60))
    n = p.mesh.n_nodes
    pairs = p.posterior_eigen(
        mp, 40, j1=n, cutoff=1e-9, oversampling=n, power_iters=1,
        rng=rng_stream(0, 9), include_negative=True,
    )
    fld = GaussianField(mp.map_point, pairs)
    ts = np.logspace(-1, -3, 5)
    details = []
    ok = True
    for j in range(1, 6):
        vals = np.array(
            [abs(p.cost(kl_map(fld, {j: float(t)})) - mp.cost_at_map - 0.5 * t * t)
             for t in ts]
        )
        if vals.max() <= 1e-8:
            details.append(f"dim {j}: flat ({vals.max():.1e})")
            continue
        keep = vals > 1e-12
        slope = float(np.polyfit(np.log(ts[keep]), np.log(vals[keep]), 1)[0])
        ok = ok and slope >= 2.5
        details.append(f"dim {j}: exp {slope:.2f}")
    check("criterion 8e (J1 flatness >= 2.5)", ok, "; ".join(details))


def test_criterion_8f_map_closed_form():
    p = make_linear_problem(alpha=1, beta=5e-2, sigma=1e-2, mesh_exp=6, seed=0)
    n = p.mesh.n_interior
    Kd, Md = p.K.dense(), p.M.dense()
    H = Md @ np.linalg.solve(Kd, Md @ np.linalg.solve(Kd, Md)) / p.sigma**2
    A_alpha = np.column_stack(
        [p.apply_prior_precision(np.eye(n)[:, k]) for k in range(n)]
    )
    rhs = Md @ np.linalg.solve(Kd, Md @ p.y) / p.sigma**2
    oracle = np.linalg.solve(H + A_alpha, rhs)
    res = p.find_map(cfg=NewtonConfig(tol=1e-12))
    rel = float(np.linalg.norm(res.map_point - oracle) / np.linalg.norm(oracle))
    check("criterion 8f (MAP closed form, 1e-6 rel at h=2^-6)", rel < 1e-6,
          f"rel {rel:.2e}")


def test_criterion_8g_bit_reproducibility():
    cfg = ExperimentConfig.linear_default(mesh_exp=8, seed=7, max_points=2000)
    a, b = run_linear(cfg), run_linear(cfg)
    same_trace = [r.value for r in a.quadrature.trace] == [
        r.value for r in b.quadrature.trace
    ]
    same = (
        a.reference == b.reference
        and a.estimate == b.estimate
        and same_trace
        and np.array_equal(a.spectrum, b.spectrum)
    )
    dcfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=7, max_points=1000,
                                          kl_dims=30)
    da, db = run_darcy(dcfg), run_darcy(dcfg)
    same = same and da.reference == db.reference
    check("criterion 8g (bit reproducibility under fixed seed)", same,
          "linear and darcy runs repeat bitwise")


# ---------------------------------------------------------------------------
# criterion 9: the rate does not depend on the parameter dimension
# ---------------------------------------------------------------------------


def test_criterion_9_dimension_independent_rates(lin_q1_a2, lin_q2_a2):
    # the alpha=2 Hessian-path runs again on the 2^-12 mesh (4,095 parameter
    # dimensions against 1,023); a run that explored every dimension would
    # show a finite-dimensional rate, so the explored dimension must stay
    # below the parameter dimension
    mesh_exp = 12
    n_params = 2**mesh_exp - 1
    details = []
    ok = True
    for qoi, coarse in (("q1", lin_q1_a2), ("q2", lin_q2_a2)):
        fine = _linear_run(2, qoi, "hessian", 20_000, mesh_exp=mesh_exp)
        r10, r12 = coarse.record.rates[0], fine.record.rates[0]
        dim = fine.summary["max_active_dim"]
        ok = ok and abs(r12 - r10) <= 0.05 and dim < n_params
        details.append(f"{qoi}: s={r10:.3f} at 2^-10, s={r12:.3f} at 2^-12, "
                       f"{dim} of {n_params} dims explored")
    check("criterion 9 (dimension-independent rates, |ds| <= 0.05, alpha=2)",
          ok, "; ".join(details))
