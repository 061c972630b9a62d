import numpy as np
import pytest
import scipy.linalg

from hessquad.fem1d import Mesh1D, TriDiagOperator, assemble, mass_operator
from hessquad.gaussian_measure import (
    EigenPairs,
    GaussianField,
    _b_orthonormalize,
    dirichlet_laplacian_eigenvalue,
    dirichlet_sine_vector,
    kl_map,
    neumann_cosine_vector,
    neumann_eigen_analytic,
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


class TestAnalyticNeumann:
    """Cosine modes: the covariance (-beta * Lap + gamma * I)^(-1) with natural
    boundary conditions, from which the Darcy true field is drawn."""

    @pytest.mark.parametrize("L", [6, 10])
    def test_eigenpairs_of_the_natural_pencil(self, L):
        # A psi = lambda^{-1} M psi, to a normwise relative residual
        # |A psi - mu M psi| / ((|A| + mu |M|) |psi|) in the 1-norm of A and M
        mesh = Mesh1D.from_exponent(L)
        A = assemble(mesh, beta=2.0, gamma=1.0, dirichlet=False)
        M = mass_operator(mesh, dirichlet=False)
        pairs = neumann_eigen_analytic(2.0, 1.0, min(200, mesh.n_nodes), mesh)
        V, mu = pairs.vectors, 1.0 / pairs.values
        residual = np.linalg.norm(A.matvec(V) - M.matvec(V) * mu, axis=0)
        norm_A = np.abs(A.dense()).sum(axis=0).max()
        norm_M = np.abs(M.dense()).sum(axis=0).max()
        scale = (norm_A + mu * norm_M) * np.linalg.norm(V, axis=0)
        assert np.max(residual / scale) <= 1e-12

    def test_values_match_dense_oracle(self):
        mesh = Mesh1D.from_exponent(5)
        A = assemble(mesh, beta=2.0, gamma=1.0, dirichlet=False).dense()
        M = mass_operator(mesh, dirichlet=False).dense()
        dense = 1.0 / scipy.linalg.eigh(A, M, eigvals_only=True)  # descending
        pairs = neumann_eigen_analytic(2.0, 1.0, mesh.n_nodes, mesh)
        np.testing.assert_allclose(pairs.values, dense, rtol=1e-10)

    @pytest.mark.parametrize("L", [6, 10])
    def test_mass_orthonormality(self, L):
        mesh = Mesh1D.from_exponent(L)
        pairs = neumann_eigen_analytic(2.0, 1.0, min(200, mesh.n_nodes), mesh)
        M = mass_operator(mesh, dirichlet=False)
        gram = pairs.vectors.T @ M.matvec(pairs.vectors)
        np.testing.assert_allclose(gram, np.eye(len(pairs)), rtol=0, atol=1e-13)

    def test_constant_mode(self):
        mesh = Mesh1D.from_exponent(6)
        assert np.array_equal(neumann_cosine_vector(mesh, 0), np.ones(mesh.n_nodes))
        pairs = neumann_eigen_analytic(2.0, 4.0, 3, mesh)
        assert pairs.values[0] == 0.25  # 1 / gamma: the Laplacian eigenvalue is 0
        np.testing.assert_array_equal(pairs.vectors[:, 0], pairs.vectors[0, 0])

    def test_exact_lattice_values(self):
        # cos(j pi i / n) is exactly 1, -1 or 0 where j i mod 2n is 0, n, or
        # n/2 or 3n/2; e.g. every odd mode vanishes at x = 1/2
        mesh = Mesh1D.from_exponent(6)
        n = mesh.n_cells
        exact = {0: 1.0, n: -1.0, n // 2: 0.0, 3 * n // 2: 0.0}
        for j in range(2 * n + 3):
            v = neumann_cosine_vector(mesh, j)
            for i in range(n + 1):
                if (j * i) % (2 * n) in exact:
                    assert v[i] == exact[(j * i) % (2 * n)], (j, i)
            if j % 2:
                assert v[n // 2] == 0.0
            assert v[0] == 1.0 and v[n] == (-1.0) ** j

    def test_validation(self):
        mesh = Mesh1D.from_exponent(4)
        for beta, gamma in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(ValueError):
                neumann_eigen_analytic(beta, gamma, 3, mesh)
        with pytest.raises(ValueError):
            neumann_eigen_analytic(1.0, 1.0, mesh.n_nodes + 1, mesh)


class TestBOrthonormalize:
    """Unpivoted QR of the Cholesky-scaled sketch, with the pivoted QR and its
    rank cut only for a numerically deficient sketch."""

    B = TriDiagOperator(np.full(40, 2.0), np.full(39, -0.5))

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = scipy.linalg.qr

        def logged(a, *args, pivoting=False, **kwargs):
            calls.append(pivoting)
            return qr(a, *args, pivoting=pivoting, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", logged)
        return calls

    def _pivoted_rank(self, Y):
        # the rank cut on the pivoted R of U Y, with B = U^T U
        U = scipy.linalg.cholesky(self.B.dense())
        d = np.abs(np.diag(scipy.linalg.qr(U @ Y, mode="r", pivoting=True)[0]))
        return int(np.sum(d > d[0] * 1e-12))

    def _assert_b_orthonormal_basis_of(self, Q, Y):
        np.testing.assert_allclose(Q.T @ self.B.matvec(Q), np.eye(Q.shape[1]),
                                   rtol=0, atol=1e-12)
        # Q spans the range of Y: projecting Y onto it B-orthogonally is exact
        P = Q @ (Q.T @ self.B.matvec(Y))
        np.testing.assert_allclose(P, Y, rtol=0, atol=1e-12 * np.abs(Y).max())

    def test_full_rank_sketch_takes_one_unpivoted_qr(self, qr_calls):
        Y = rng_stream(0, 20).standard_normal((40, 12))
        Q = _b_orthonormalize(Y.copy(), self.B)
        assert qr_calls == [False]
        assert Q.shape == (40, 12)
        self._assert_b_orthonormal_basis_of(Q, Y)

    @pytest.mark.parametrize("deficiency, rank", [("duplicate column", 11), ("zero block", 8)])
    def test_deficient_sketch_falls_back_to_the_pivoted_rank(self, deficiency, rank, qr_calls):
        Y = rng_stream(0, 21).standard_normal((40, 12))
        if deficiency == "duplicate column":
            Y[:, 7] = Y[:, 2]
        else:
            Y[:, 8:] = 0.0
        Q = _b_orthonormalize(Y.copy(), self.B)
        assert qr_calls == [False, True]
        assert Q.shape[1] == self._pivoted_rank(Y) == rank
        self._assert_b_orthonormal_basis_of(Q, Y)

    def test_empty_sketch(self, qr_calls):
        Q = _b_orthonormalize(np.zeros((40, 0)), self.B)
        assert Q.shape == (40, 0)
        assert qr_calls == [False, True]


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
            lambda X: d @ X, B, 2, oversampling=1, rng=rng_stream(0, 1),
        )
        np.testing.assert_allclose(pairs.values, [3.0, 2.0], atol=1e-12)

    def test_operator_equal_to_B(self):
        # op = B^{-1} B = identity in the B inner product: all eigenvalues 1
        # B is a random diagonally dominant (hence SPD) tridiagonal matrix
        rng = rng_stream(0, 2)
        n = 12
        off = rng.standard_normal(n - 1)
        B = TriDiagOperator(2.0 + rng.random(n) + 2.0 * np.abs(off).max(), off)
        pairs = randomized_eigen(lambda X: X, B, 5, rng=rng_stream(0, 3))
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

    def test_each_vector_peaks_positive(self):
        # the sign convention, checked column by column: the entry of largest
        # magnitude (the first, on ties) of each returned vector is positive
        mesh = Mesh1D.from_exponent(6)
        A = assemble(mesh, beta=5e-2, gamma=0.0, dirichlet=True)
        M = mass_operator(mesh, dirichlet=True)
        pairs = prior_eigen_numeric(A, M, 1, 20, oversampling=10, power_iters=2,
                                    rng=rng_stream(3, 1))
        for v in pairs.vectors.T:
            assert v[np.argmax(np.abs(v))] > 0

    # Deficient sketches go through both kinds of power step: a sketch as
    # wide as the space (oversampling 10) takes none, a narrower one
    # (oversampling 1) takes them.  The final B-orthonormalization cuts the
    # rank; an LU step never does, its P L factor has full column rank.

    def test_low_rank_operator_returns_its_rank(self):
        rng = rng_stream(0, 6)
        u = rng.standard_normal((8, 2))
        low = u @ u.T  # rank 2
        for lu_steps in (False, True):
            for J, oversampling in ((5, 10), (3, 1)):
                pairs = randomized_eigen(
                    lambda X: low @ X, TriDiagOperator(np.ones(8), np.zeros(7)),
                    J, oversampling=oversampling, power_iters=2,
                    rng=rng_stream(0, 7), lu_steps=lu_steps,
                )
                assert len(pairs) == 2

    def test_zero_operator_returns_no_pairs(self):
        B = TriDiagOperator(np.full(8, 2.0), np.full(7, -0.5))
        for lu_steps in (False, True):
            for oversampling in (10, 1):
                for power_iters in (0, 2):
                    pairs = randomized_eigen(
                        lambda X: 0.0 * X, B, 3, oversampling=oversampling,
                        power_iters=power_iters, rng=rng_stream(0, 8),
                        lu_steps=lu_steps,
                    )
                    assert len(pairs) == 0
                    assert pairs.vectors.shape == (8, 0)

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
