import math

import numpy as np
import pytest

from hessquad.fem1d import (
    Mesh1D,
    TriDiagOperator,
    apply_A_alpha,
    apply_A_alpha_inv,
    assemble,
    laplace_operator,
    mass_operator,
    weighted_mass_operator,
)
from hessquad.inverse_problem import (
    DarcyProblem,
    assemble_observation_matrix,
    make_darcy_problem,
    make_linear_problem,
)


def darcy_problem(mesh: Mesh1D) -> DarcyProblem:
    """A Darcy problem on ``mesh`` whose forward solve the tests probe."""
    B = assemble_observation_matrix(mesh, np.array([0.5]), mesh.h)
    return DarcyProblem(
        mesh, alpha=1, A_prior=assemble(mesh, beta=1.0, gamma=1.0), B=B, sigma=1.0,
        y=np.zeros(1), prior_mean=np.zeros(mesh.n_nodes),
    )


def solve_poisson(m: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Oracle: -u'' = m with homogeneous Dirichlet data, nodal in and out,
    from the P1 mass and Laplace assembly (consistent load)."""
    load = mass_operator(mesh).matvec(m)[1:-1]
    u = np.zeros(mesh.n_nodes)
    u[1:-1] = laplace_operator(mesh, dirichlet=True).solve(load)
    return u


def darcy_pressure(m: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    return darcy_problem(mesh)._forward_state(m).u


class TestAssembly:
    def test_mass_stencil(self):
        mesh = Mesh1D(2)  # h = 1/2, 3 nodes
        m = mass_operator(mesh)
        assert m.diag[1] == pytest.approx(1.0 / 3.0)  # 2h/3
        assert m.diag[0] == pytest.approx(1.0 / 6.0)  # h/3 at the boundary
        assert m.off[0] == pytest.approx(1.0 / 12.0)  # h/6

    def test_laplace_stencil(self):
        mesh = Mesh1D(2)
        k = laplace_operator(mesh, dirichlet=False)
        assert k.diag[1] == pytest.approx(4.0)  # 2/h
        assert k.off[0] == pytest.approx(-2.0)  # -1/h

    def test_stiffness_reduces_to_laplacian(self):
        mesh = Mesh1D(16)
        a = assemble(mesh, beta=1.0, gamma=0.0, dirichlet=True)
        lap = laplace_operator(mesh, dirichlet=True)
        np.testing.assert_array_equal(a.diag, lap.diag)
        np.testing.assert_array_equal(a.off, lap.off)

    def test_neumann_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            assemble(Mesh1D(8), beta=1.0, gamma=0.0, dirichlet=False)
        with pytest.raises(ValueError):
            assemble(Mesh1D(8), beta=-1.0, gamma=1.0)

    @pytest.mark.parametrize("dirichlet", [True, False])
    def test_operators_spd(self, dirichlet):
        mesh = Mesh1D(32)  # dense check on a small mesh
        ops = [mass_operator(mesh, dirichlet=dirichlet)]
        if dirichlet:
            ops.append(assemble(mesh, beta=2.0, gamma=0.0, dirichlet=True))
        ops.append(assemble(mesh, beta=2.0, gamma=1.0, dirichlet=dirichlet))
        for op in ops:
            dense = op.dense()
            np.testing.assert_allclose(dense, dense.T, atol=1e-15)
            assert np.linalg.eigvalsh(dense).min() > 0

    def test_matvec_matches_dense(self):
        mesh = Mesh1D(16)
        op = assemble(mesh, beta=1.5, gamma=0.7)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.n_dof)
        np.testing.assert_allclose(op.matvec(v), op.dense() @ v, atol=1e-12)
        V = rng.standard_normal((op.n_dof, 3))
        np.testing.assert_allclose(op.matvec(V), op.dense() @ V, atol=1e-12)

    def test_solve_roundtrip(self):
        mesh = Mesh1D(64)
        op = assemble(mesh, beta=1.0, gamma=2.0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(op.n_dof)
        np.testing.assert_allclose(op.matvec(op.solve(v)), v, atol=1e-10)

    @pytest.mark.parametrize("n_cells", [2, 64])  # 2 cells: a single dof
    def test_solve_matches_dense(self, n_cells):
        mesh = Mesh1D(n_cells)
        # the interior stiffness of -(k u')' with a cell coefficient k
        a = np.exp(np.sin(np.arange(n_cells))) / mesh.h
        op = TriDiagOperator(a[:-1] + a[1:], -a[1:-1])
        rng = np.random.default_rng(4)
        dense = op.dense()
        v = rng.standard_normal(op.n_dof)
        np.testing.assert_allclose(op.solve(v), np.linalg.solve(dense, v),
                                   rtol=1e-12, atol=1e-14)
        V = rng.standard_normal((op.n_dof, 3))
        np.testing.assert_allclose(op.solve(V), np.linalg.solve(dense, V),
                                   rtol=1e-12, atol=1e-14)

    def test_solve_rejects_bad_operators_and_lengths(self):
        mesh = Mesh1D(16)
        op = assemble(mesh, beta=1.0, gamma=1.0)
        mass = mass_operator(mesh)
        v = np.ones(op.n_dof)
        with pytest.raises(np.linalg.LinAlgError):
            op.add(mass, -1e3).solve(v)
        with pytest.raises(ValueError):
            op.add(mass, np.nan).solve(v)
        for n in (op.n_dof - 2, op.n_dof + 3):
            with pytest.raises(ValueError):
                op.solve(np.ones(n))


class TestWeightedMass:
    def test_unit_weight_equals_mass(self):
        mesh = Mesh1D(16)
        w = weighted_mass_operator(mesh, lambda x: np.ones_like(x))
        m = mass_operator(mesh)
        np.testing.assert_allclose(w.diag, m.diag, rtol=1e-14)
        np.testing.assert_allclose(w.off, m.off, rtol=1e-14)

    def test_linear_weight_against_quadrature_oracle(self):
        from scipy.integrate import quad

        mesh = Mesh1D(4)
        w = weighted_mass_operator(mesh, lambda x: x)
        xs = mesh.nodes()
        h = mesh.h

        def hat(i):
            def phi(x):
                return np.maximum(0.0, 1.0 - np.abs(x - xs[i]) / h)
            return phi

        for i in range(mesh.n_nodes):
            oracle, _ = quad(lambda x: x * hat(i)(x) ** 2, 0, 1, limit=200)
            assert w.diag[i] == pytest.approx(oracle, rel=1e-9)
        for i in range(mesh.n_nodes - 1):
            oracle, _ = quad(
                lambda x: x * hat(i)(x) * hat(i + 1)(x), 0, 1, limit=200
            )
            assert w.off[i] == pytest.approx(oracle, rel=1e-9)


class TestAAlpha:
    def setup_method(self):
        self.mesh = Mesh1D(64)
        self.A = assemble(self.mesh, beta=1.0, gamma=1.0)
        self.M = mass_operator(self.mesh)
        self.rng = np.random.default_rng(2)

    def test_alpha_one_is_A(self):
        v = self.rng.standard_normal(self.A.n_dof)
        np.testing.assert_allclose(
            apply_A_alpha(v, 1, self.A, self.M), self.A.matvec(v), atol=1e-12
        )

    def test_alpha_two_composition(self):
        v = self.rng.standard_normal(self.A.n_dof)
        # A_2 v = A M^{-1} (A v): compose two alpha=1 applications
        expect = self.A.matvec(self.M.solve(self.A.matvec(v)))
        np.testing.assert_allclose(
            apply_A_alpha(v, 2, self.A, self.M), expect, atol=1e-10
        )

    # The roundtrip error floor is cond(A_alpha) * eps = cond(A)^alpha * eps;
    # at this mesh cond(A) ~ 1.6e4, so 1e-10 is only reachable for alpha = 1.
    @pytest.mark.parametrize("alpha,tol", [(1, 1e-10), (2, 1e-6), (3, 1e-2)])
    def test_inverse_roundtrip(self, alpha, tol):
        v = self.rng.standard_normal(self.A.n_dof)
        back = apply_A_alpha_inv(
            apply_A_alpha(v, alpha, self.A, self.M), alpha, self.A, self.M
        )
        assert np.linalg.norm(back - v) <= tol * np.linalg.norm(v)

    def test_inverse_quadratic_nonnegative(self):
        for _ in range(5):
            v = self.rng.standard_normal(self.A.n_dof)
            w = apply_A_alpha_inv(v, 2, self.A, self.M)
            assert np.dot(v, w) >= 0

    def test_problems_refuse_bad_alpha(self):
        # checked once by the constructors, not by apply_A_alpha(_inv)
        for make in (make_linear_problem, make_darcy_problem):
            for alpha in (0, 1.5):
                with pytest.raises(ValueError, match="alpha"):
                    make(alpha=alpha, mesh_exp=3)


class TestPoisson:
    def test_zero_source(self):
        mesh = Mesh1D(32)
        np.testing.assert_array_equal(
            solve_poisson(np.zeros(mesh.n_nodes), mesh), np.zeros(mesh.n_nodes)
        )

    def test_constant_source_exact_at_nodes(self):
        # -u'' = 1 has u = x(1-x)/2; P1 with consistent load is nodally exact
        mesh = Mesh1D(16)
        u = solve_poisson(np.ones(mesh.n_nodes), mesh)
        x = mesh.nodes()
        np.testing.assert_allclose(u, x * (1 - x) / 2, atol=1e-13)
        assert u[mesh.n_cells // 2] == pytest.approx(0.125, abs=1e-13)

    def test_sine_eigenfunction_second_order(self):
        errs = []
        hs = []
        for L in range(3, 8):
            mesh = Mesh1D.from_exponent(L)
            x = mesh.nodes()
            u = solve_poisson(np.sin(np.pi * x), mesh)
            errs.append(np.max(np.abs(u - np.sin(np.pi * x) / np.pi**2)))
            hs.append(mesh.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestDarcy:
    def test_zero_field_is_linear_profile(self):
        mesh = Mesh1D(32)
        u = darcy_pressure(np.zeros(mesh.n_nodes), mesh)
        np.testing.assert_allclose(u, 1.0 - mesh.nodes(), atol=1e-13)

    def test_constant_field_same_profile(self):
        mesh = Mesh1D(32)
        u = darcy_pressure(np.full(mesh.n_nodes, 0.7), mesh)
        np.testing.assert_allclose(u, 1.0 - mesh.nodes(), atol=1e-13)

    @pytest.mark.parametrize("L", [4, 6])
    def test_step_field_flux_balance(self, L):
        # m = 0 on the left half, ln 2 on the right; the cell straddling the
        # jump carries the midpoint coefficient sqrt(2).  Exact discrete
        # solution by flux balance; u(1/2) -> 1/3 at first order in h.
        mesh = Mesh1D.from_exponent(L)
        x = mesh.nodes()
        m = np.where(x < 0.5, 0.0, math.log(2.0))
        u = darcy_pressure(m, mesh)
        h = mesh.h
        flux = 1.0 / ((0.5 - h) / 1.0 + h / math.sqrt(2.0) + 0.5 / 2.0)
        assert u[mesh.n_cells // 2] == pytest.approx(flux / 4.0, rel=1e-12)
        assert abs(u[mesh.n_cells // 2] - 1.0 / 3.0) <= 0.2 * h

    def test_rejects_non_finite(self):
        mesh = Mesh1D(8)
        m = np.zeros(mesh.n_nodes)
        m[3] = np.inf
        with pytest.raises(ValueError):
            darcy_problem(mesh).forward(m)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(3)
    with pytest.raises(ValueError):
        Mesh1D(0)
    assert Mesh1D.from_exponent(5).n_cells == 32
