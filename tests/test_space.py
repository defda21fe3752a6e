import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsde.space import (HilbertSpace, SpectralOperator, dirichlet_laplacian, resolvent_apply,
                           yosida_apply)

RNG = np.random.default_rng(20260809)

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def semigroup(A, t, x):
    """exp(-t A) x, diagonal in the eigenbasis."""
    return A.synthesize(A.semigroup_factors(t) * A.coords(x))


def random_vectors(n, count, scale=1.0, seed=0):
    return scale * np.random.default_rng(seed).standard_normal((count, n))


class TestHilbertSpace:
    def test_norm_positive_definite(self):
        space = HilbertSpace(4, 0.2)
        assert space.norm(np.zeros(4)) == 0.0
        for x in random_vectors(4, 20, seed=1):
            assert space.norm(x) > 0.0

    @given(st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz(self, u, v):
        space = HilbertSpace(3, 0.25)
        u, v = np.array(u), np.array(v)
        assert abs(space.inner(u, v)) <= space.norm(u) * space.norm(v) + 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HilbertSpace(0)
        with pytest.raises(ValueError):
            HilbertSpace(3, 0.0)
        with pytest.raises(ValueError):
            HilbertSpace(3).norm(np.zeros(4))


class TestDirichletLaplacian:
    def test_single_node_eigenvalue(self):
        # h = 1/2, lam = 16 sin(pi/4)^2 = 8
        A = dirichlet_laplacian(1)
        assert A.eigenvalues[0] == pytest.approx(8.0, abs=1e-12)

    def test_smallest_eigenvalue_matches_eigensolver(self):
        # independent oracle: numpy.linalg.eigh on the explicit tridiagonal
        n, h = 3, 0.25
        tri = (np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1)
               + np.diag(-np.ones(n - 1), -1)) / h**2
        oracle = np.linalg.eigh(tri)[0]
        A = dirichlet_laplacian(3)
        assert np.abs(A.eigenvalues - oracle).max() < 1e-10
        # closed form (4/h^2) sin(pi h / 2)^2 with h = 1/4
        assert A.eigenvalues[0] == pytest.approx(64.0 * np.sin(np.pi / 8) ** 2, abs=1e-12)
        assert A.eigenvalues[0] == pytest.approx(9.372583002030478, abs=1e-12)

    def test_matrix_is_the_tridiagonal(self):
        n = 6
        h = 1.0 / (n + 1)
        tri = (np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1)
               + np.diag(-np.ones(n - 1), -1)) / h**2
        assert np.abs(dirichlet_laplacian(n).matrix - tri).max() < 1e-9

    def test_weighted_orthonormality(self):
        A = dirichlet_laplacian(10)
        gram = A.space.weight * A.eigenvectors.T @ A.eigenvectors
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_eigenvalues_strictly_increasing_and_positive(self):
        A = dirichlet_laplacian(12)
        assert A.eigenvalues[0] > 0.0
        assert np.all(np.diff(A.eigenvalues) > 0.0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            dirichlet_laplacian(0)


class TestSpectralOperator:
    def test_diagonal_apply(self):
        A = SpectralOperator.diagonal([1.0, 2.0, 4.0])
        assert np.allclose(A.apply([1.0, 1.0, 1.0]), [1.0, 2.0, 4.0], atol=1e-14)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            SpectralOperator([1.0, 2.0], np.array([[1.0, 1.0], [0.0, 1.0]]), HilbertSpace(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            SpectralOperator.diagonal([1.0, -0.5])

    def test_scaled_spectrum(self):
        A = dirichlet_laplacian(4)
        half = A.scaled(0.5)
        assert np.allclose(half.eigenvalues, 0.5 * A.eigenvalues)
        assert np.array_equal(half.eigenvectors, A.eigenvectors)
        with pytest.raises(ValueError):
            A.scaled(0.0)



class TestResolvent:
    def test_diagonal_formula(self):
        A = SpectralOperator.diagonal([1.0, 2.0, 4.0])
        out = resolvent_apply(A, 0.5, [1.0, 1.0, 1.0])
        assert np.allclose(out, [2.0 / 3.0, 0.5, 1.0 / 3.0], atol=1e-14)

    def test_small_epsilon_is_identity(self):
        A = dirichlet_laplacian(6)
        x = RNG.standard_normal(6)
        out = resolvent_apply(A, 1e-14, x)
        assert np.abs(out - x).max() < 1e-9

    def test_matches_dense_linear_solve(self):
        # oracle: solve (I + 0.1 A) y = x directly
        A = dirichlet_laplacian(3)
        x = np.array([1.0, 0.0, 0.0])
        oracle = np.linalg.solve(np.eye(3) + 0.1 * A.matrix, x)
        assert np.abs(resolvent_apply(A, 0.1, x) - oracle).max() < 1e-10

    def test_contraction(self):
        A = dirichlet_laplacian(8)
        for i, x in enumerate(random_vectors(8, 25, seed=3)):
            eps = 10.0 ** RNG.uniform(-3, 1)
            assert A.space.norm(resolvent_apply(A, eps, x)) <= A.space.norm(x) + 1e-12

    def test_matches_resolvent_matrix(self):
        A = dirichlet_laplacian(4)
        x = RNG.standard_normal(4)
        assert np.allclose(A.resolvent_matrix(0.2) @ x, resolvent_apply(A, 0.2, x), atol=1e-15)

    def test_rejects_bad_arguments(self):
        A = dirichlet_laplacian(3)
        with pytest.raises(ValueError):
            resolvent_apply(A, 0.0, np.zeros(3))
        with pytest.raises(ValueError):
            resolvent_apply(A, -1.0, np.zeros(3))
        with pytest.raises(ValueError):
            resolvent_apply(A, 0.5, np.zeros(4))
        with pytest.raises(ValueError):
            A.resolvent_matrix(-0.1)


class TestYosida:
    def test_single_eigenvalue(self):
        # lam = 2, eps = 1/2: Yosida eigenvalue 2/(1+1) = 1
        A = SpectralOperator.diagonal([2.0])
        assert yosida_apply(A, 0.5, [1.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_difference_quotient_identity(self):
        A = dirichlet_laplacian(9)
        for i, x in enumerate(random_vectors(9, 20, seed=5)):
            eps = 10.0 ** RNG.uniform(-3, 0)
            lhs = yosida_apply(A, eps, x)
            rhs = (x - resolvent_apply(A, eps, x)) / eps
            assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_monotonicity(self):
        A = dirichlet_laplacian(9)
        for x in random_vectors(9, 50, seed=6):
            assert A.space.inner(yosida_apply(A, 0.3, x), x) >= -1e-12

    def test_convergence_on_first_eigenvector(self):
        # oracle is the exact image A x; the error has the closed form
        # eps*lam^2/(1+eps*lam) so it decreases monotonically and is O(eps),
        # with log-log slope approaching 1 once eps*lam is small (saturation
        # at eps*lam = O(1) flattens the large-eps end of the sweep)
        A = dirichlet_laplacian(15)
        lam = A.eigenvalues[0]
        x = A.eigenvectors[:, 0]
        exact = A.apply(x)
        epsilons = [2.0 ** -j for j in range(1, 7)]
        errors = []
        for eps in epsilons:
            err = A.space.norm(yosida_apply(A, eps, x) - exact)
            assert err == pytest.approx(eps * lam**2 / (1 + eps * lam), rel=1e-12)
            assert err <= eps * lam**2 + 1e-12
            errors.append(err)
        assert np.all(np.diff(errors) < 0.0)
        tail = np.polyfit(np.log2(epsilons[-3:]), np.log2(errors[-3:]), 1)[0]
        assert tail >= 0.7


class TestSemigroup:
    def test_time_zero_is_identity(self):
        A = dirichlet_laplacian(5)
        x = RNG.standard_normal(5)
        assert np.array_equal(semigroup(A, 0.0, x), x) or \
            np.abs(semigroup(A, 0.0, x) - x).max() < 1e-14

    def test_diagonal_exponentials(self):
        A = SpectralOperator.diagonal([1.0, 2.0])
        out = semigroup(A, np.log(2.0), [1.0, 1.0])
        assert np.allclose(out, [0.5, 0.25], atol=1e-14)

    def test_semigroup_property(self):
        A = dirichlet_laplacian(7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, t = rng.uniform(0.0, 0.5, 2)
            x = rng.standard_normal(7)
            once = semigroup(A, s + t, x)
            twice = semigroup(A, s, semigroup(A, t, x))
            assert np.abs(once - twice).max() < 1e-10

    def test_contraction(self):
        A = dirichlet_laplacian(7)
        x = RNG.standard_normal(7)
        assert A.space.norm(semigroup(A, 0.7, x)) <= A.space.norm(x)


class TestAlgebraicProperties:
    @given(st.floats(min_value=0.01, max_value=2.0), st.floats(min_value=0.01, max_value=2.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_resolvent_identity(self, eps, delta, seed):
        # J_eps x - J_delta x = (delta - eps) J_eps (A J_delta x)
        A = dirichlet_laplacian(8)
        x = np.random.default_rng(seed).standard_normal(8)
        lhs = resolvent_apply(A, eps, x) - resolvent_apply(A, delta, x)
        rhs = (delta - eps) * resolvent_apply(A, eps, A.apply(resolvent_apply(A, delta, x)))
        assert np.abs(lhs - rhs).max() < 1e-9

    @given(st.floats(min_value=0.01, max_value=2.0), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_resolvent_semigroup_commute(self, eps, t, seed):
        A = dirichlet_laplacian(8)
        x = np.random.default_rng(seed).standard_normal(8)
        lhs = resolvent_apply(A, eps, semigroup(A, t, x))
        rhs = semigroup(A, t, resolvent_apply(A, eps, x))
        assert np.abs(lhs - rhs).max() < 1e-10
