import numpy as np
import pytest
import scipy.linalg

from hessquad.fem1d import Mesh1D, TriDiagOperator, assemble, mass_operator
from hessquad.gaussian_measure import (
    EigenPairs,
    GaussianField,
    dirichlet_laplacian_eigenvalue,
    dirichlet_sine_vector,
    kl_map,
    prior_eigen_analytic,
    prior_eigen_numeric,
    randomized_eigen,
    rng_stream,
    spectrum_to_csv,
)


class TestAnalyticPrior:
    def test_first_eigenvalue_matches_formula(self):
        # (beta * pi^2)^(-1) for beta = 5e-2: about 2.02642
        mesh = Mesh1D.from_exponent(10)
        pairs = prior_eigen_analytic(5e-2, 1, 5, mesh)
        assert pairs.values[0] == pytest.approx(1.0 / (5e-2 * np.pi**2), rel=1e-5)
        assert pairs.values[0] == pytest.approx(2.02642, rel=1e-4)

    def test_alpha_two_decay(self):
        mesh = Mesh1D.from_exponent(8)
        pairs = prior_eigen_analytic(1e-1, 2, 30, mesh)
        lap = np.array([dirichlet_laplacian_eigenvalue(mesh, j) for j in range(1, 31)])
        np.testing.assert_allclose(pairs.values, (1e-1 * lap) ** -2.0)

    def test_mass_orthonormality(self):
        mesh = Mesh1D.from_exponent(10)
        pairs = prior_eigen_analytic(5e-2, 1, 20, mesh)
        M = mass_operator(mesh, dirichlet=True)
        gram = pairs.vectors.T @ M.matvec(pairs.vectors)
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-8)

    def test_descending(self):
        mesh = Mesh1D.from_exponent(6)
        pairs = prior_eigen_analytic(1.0, 1, 10, mesh)
        assert np.all(np.diff(pairs.values) <= 0)

    def test_sine_vector_exact_lattice_zeros(self):
        mesh = Mesh1D.from_exponent(6)
        for j in (2, 4, 8):
            v = dirichlet_sine_vector(mesh, j)
            center = mesh.n_cells // 2 - 1  # interior index of x = 0.5
            assert v[center] == 0.0

    def test_discrete_eigenvalue_formula(self):
        # oracle: dense generalized stiffness/mass eigenvalues
        mesh = Mesh1D.from_exponent(5)
        from hessquad.fem1d import laplace_operator

        K = laplace_operator(mesh, dirichlet=True).dense()
        M = mass_operator(mesh, dirichlet=True).dense()
        dense = np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))
        for j in range(1, 6):
            assert dirichlet_laplacian_eigenvalue(mesh, j) == pytest.approx(
                dense[j - 1], rel=1e-12
            )
        # continuum values agree to O((j pi h)^2 / 12)
        for j in range(1, 6):
            disc = dirichlet_laplacian_eigenvalue(mesh, j)
            cont = (j * np.pi) ** 2
            assert abs(disc - cont) / cont <= (j * np.pi * mesh.h) ** 2 / 11

    def test_validation(self):
        mesh = Mesh1D.from_exponent(4)
        with pytest.raises(ValueError):
            prior_eigen_analytic(-1.0, 1, 3, mesh)
        with pytest.raises(ValueError):
            prior_eigen_analytic(1.0, 0, 3, mesh)
        with pytest.raises(ValueError):
            prior_eigen_analytic(1.0, 1, mesh.n_interior + 1, mesh)


class TestKlMap:
    def make_field(self, J=8):
        mesh = Mesh1D.from_exponent(6)
        pairs = prior_eigen_analytic(5e-2, 1, J, mesh)
        return GaussianField(mean=np.zeros(mesh.n_interior), pairs=pairs)

    def test_zero_coordinates_give_mean(self):
        fld = self.make_field()
        np.testing.assert_array_equal(kl_map(fld, {}), fld.mean)

    def test_single_mode(self):
        fld = self.make_field()
        out = kl_map(fld, {1: 1.0})
        expect = fld.mean + np.sqrt(fld.pairs.values[0]) * fld.pairs.vectors[:, 0]
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_out_of_truncation_rejected(self):
        fld = self.make_field(J=4)
        with pytest.raises(ValueError):
            kl_map(fld, {5: 1.0})
        with pytest.raises(ValueError):
            kl_map(fld, {0: 1.0})

    def test_affine(self):
        fld = self.make_field()
        rng = rng_stream(3, 1)
        for _ in range(5):
            xi = {int(j): float(rng.standard_normal()) for j in rng.integers(1, 9, 3)}
            zeta = {int(j): float(rng.standard_normal()) for j in rng.integers(1, 9, 3)}
            both = dict(xi)
            for j, v in zeta.items():
                both[j] = both.get(j, 0.0) + v
            lhs = kl_map(fld, both) - kl_map(fld, xi) - kl_map(fld, zeta) + fld.mean
            assert np.max(np.abs(lhs)) <= 1e-12

    def test_sample_covariance_monte_carlo(self):
        # MC oracle: 1e4 draws reproduce Var[m(x*)] = sum lambda_j psi_j(x*)^2
        mesh = Mesh1D.from_exponent(8)
        J = 50
        pairs = prior_eigen_analytic(5e-2, 1, J, mesh)
        fld = GaussianField(mean=np.zeros(mesh.n_interior), pairs=pairs)
        star = mesh.n_cells // 2 - 1
        rng = rng_stream(7, 2)
        xs = pairs.vectors[star, :] * np.sqrt(pairs.values)
        draws = rng.standard_normal((10_000, J)) @ xs
        expect = float(np.sum(pairs.values * pairs.vectors[star, :] ** 2))
        assert np.var(draws) == pytest.approx(expect, rel=0.05)


class TestRandomizedEigen:
    def test_diagonal_operator(self):
        d = np.diag([3.0, 2.0, 1.0])
        B = TriDiagOperator(np.ones(3), np.zeros(2))
        pairs = randomized_eigen(
            lambda X: d @ X, B, 3, 2, oversampling=1, rng=rng_stream(0, 1),
        )
        np.testing.assert_allclose(pairs.values, [3.0, 2.0], atol=1e-12)

    def test_operator_equal_to_B(self):
        # op = B^{-1} B = identity in the B inner product: all eigenvalues 1
        # B is a random diagonally dominant (hence SPD) tridiagonal matrix
        rng = rng_stream(0, 2)
        n = 12
        off = rng.standard_normal(n - 1)
        B = TriDiagOperator(2.0 + rng.random(n) + 2.0 * np.abs(off).max(), off)
        pairs = randomized_eigen(lambda X: X, B, n, 5, rng=rng_stream(0, 3))
        np.testing.assert_allclose(pairs.values, np.ones(5), atol=1e-11)

    def test_prior_operator_against_dense_oracle(self):
        # Rayleigh-Ritz accuracy of the trailing sketched mode is limited by
        # the spectral-gap ratio: the j^{-2} tail needs several power
        # iterations before the 10th value reaches 1e-8 (measured: ~1.5e-3 at
        # one iteration, 1.4e-10 at six).
        mesh = Mesh1D.from_exponent(8)
        beta, alpha = 5e-2, 1
        A = assemble(mesh, beta=beta, gamma=0.0, dirichlet=True)
        M = mass_operator(mesh, dirichlet=True)
        Ad, Md = A.dense(), M.dense()
        dense_vals = np.sort(scipy.linalg.eigh(
            Md @ np.linalg.solve(Ad, Md), Md, eigvals_only=True
        ))[::-1]
        tight = prior_eigen_numeric(
            A, M, alpha, 10, oversampling=10, power_iters=6,
            rng=rng_stream(1, 4),
        )
        np.testing.assert_allclose(tight.values, dense_vals[:10], rtol=1e-8)
        loose = prior_eigen_numeric(
            A, M, alpha, 10, oversampling=10, power_iters=1,
            rng=rng_stream(1, 4),
        )
        np.testing.assert_allclose(loose.values, dense_vals[:10], rtol=5e-3)
        gram = tight.vectors.T @ M.matvec(tight.vectors)
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-10)

    def test_numeric_matches_analytic_prior(self):
        # machinery check at the discrete eigenvalues (tight), plus the
        # continuum formula within its discretization error
        mesh = Mesh1D.from_exponent(8)
        A = assemble(mesh, beta=5e-2, gamma=0.0, dirichlet=True)
        M = mass_operator(mesh, dirichlet=True)
        num = prior_eigen_numeric(A, M, 1, 20, oversampling=20,
                                  power_iters=6, rng=rng_stream(2, 5))
        ana = prior_eigen_analytic(5e-2, 1, 20, mesh)
        np.testing.assert_allclose(num.values, ana.values, rtol=1e-8)
        cont = (5e-2 * (np.arange(1, 21) * np.pi) ** 2) ** -1.0
        np.testing.assert_allclose(num.values, cont, rtol=6e-3)

    def test_rank_deficiency_warns_and_truncates(self):
        rng = rng_stream(0, 6)
        u = rng.standard_normal((8, 2))
        low = u @ u.T  # rank 2
        with pytest.warns(UserWarning, match="rank deficiency"):
            pairs = randomized_eigen(
                lambda X: low @ X, TriDiagOperator(np.ones(8), np.zeros(7)), 8, 5,
                rng=rng_stream(0, 7),
            )
        assert len(pairs) == 2

    def test_descending_enforced(self):
        with pytest.raises(ValueError):
            EigenPairs(values=np.array([1.0, 2.0]), vectors=np.eye(2))


def test_spectrum_csv():
    text = spectrum_to_csv(np.array([4.0, 1.0, 0.25]))
    lines = text.strip().splitlines()
    assert lines[0] == "j,sqrt_lambda"
    assert lines[1] == "1,2"
    assert lines[3] == "3,0.5"


def test_rng_stream_reproducible_and_independent():
    a = rng_stream(42, 1).standard_normal(4)
    b = rng_stream(42, 1).standard_normal(4)
    c = rng_stream(42, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
