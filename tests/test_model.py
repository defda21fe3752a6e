import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsde.model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                           Nonlinearity, check_dissipativity_triplet, weighted_norm)
from mildsde.noise import TimeGrid, sample_wiener
from mildsde.space import HilbertSpace, SpectralOperator, dirichlet_laplacian

from conftest import make_cubic_spec


class TestNonlinearity:
    def test_cubic_evaluation(self):
        F = Nonlinearity((0.0, 0.0, 0.0, 1.0))
        assert np.allclose(F([1.0, -2.0]), [1.0, -8.0])

    def test_identity_polynomial(self):
        F = Nonlinearity((0.0, 1.0))
        u = np.linspace(-3, 3, 11)
        assert np.array_equal(F(u), u)

    def test_zero_polynomial(self):
        assert np.array_equal(Nonlinearity.zero()(np.ones(4)), np.zeros(4))

    def test_derivative(self):
        F = Nonlinearity((0.0, -3.0, 0.0, 1.0))
        r = np.array([0.0, 1.0, 2.0])
        assert np.allclose(F.derivative(r), 3 * r**2 - 3.0)

    def test_min_derivative_exact(self):
        # f = r^3 - 3r, f' = 3r^2 - 3, infimum -3 at r = 0
        F = Nonlinearity((0.0, -3.0, 0.0, 1.0))
        assert F.min_derivative() == -3.0
        assert Nonlinearity((0.0, 2.0)).min_derivative() == 2.0
        assert Nonlinearity.zero().min_derivative() == 0.0
        # f = r^7 + r^4: f' = 7r^6 + 4r^3 is least at r^3 = -2/7, value -4/7
        F = Nonlinearity((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0))
        assert F.min_derivative() == pytest.approx(-4.0 / 7.0, abs=1e-14)

    def test_out_may_not_be_the_input(self):
        # Horner reads u after its first write to out, so f(x, out=x) would give 9, not 6
        F = Nonlinearity((0.0, -1.0, 0.0, 1.0))
        x = np.array([2.0])
        with pytest.raises(ValueError, match="out=u"):
            F(x, out=x)
        assert x.tolist() == [2.0] and F(x).tolist() == [6.0]

    @pytest.mark.parametrize("coefficients", [(), (1.5,), (0.0, -1.0, 0.0, 1.0),
                                              (0.5, 0.0, -2.0)])
    def test_a_distinct_out_is_returned_with_the_bytes_of_f(self, coefficients):
        F = Nonlinearity(coefficients)
        x = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        out = np.full_like(x, np.nan)
        assert F(x, out=out) is out
        assert out.tobytes() == F(x).tobytes()

    def test_the_cached_plan_stays_out_of_the_spec_identity(self):
        # calling F builds its Horner plan once; payload, fingerprint and == do not see it
        spec, fresh = make_cubic_spec(n=7), make_cubic_spec(n=7)
        payload, fingerprint = spec.payload(), spec.fingerprint()
        F = spec.F
        F(spec.u0)
        plan = vars(F)["_horner"]
        F(spec.u0, out=np.empty(7))
        assert vars(F)["_horner"] is plan and "_horner" not in vars(fresh.F)
        assert spec.payload() == payload == fresh.payload()
        assert spec.fingerprint() == fingerprint == fresh.fingerprint()
        assert F == fresh.F and hash(F) == hash(fresh.F) and repr(F) == repr(fresh.F)
        assert spec == spec and spec != fresh   # EquationSpec compares by identity


def scalar_multiplicative_spec(alpha):
    A = SpectralOperator.diagonal([0.0])
    B = DiffusionCoefficient(np.zeros((1, 1)), [1.0], np.array([1.0]))
    G = JumpCoefficient.zero(1)
    return EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G,
                        u0=np.zeros(1), T=1.0, alpha=alpha)


class TestDissipativityTriplet:
    def test_additive_noise_with_monotone_drift(self):
        # f = r^3: inf f' = 0 at r = 0 and additive noise has no Lipschitz cost
        spec = make_cubic_spec(n=9, multiplicative=False,
                               f_coeffs=(0.0, 0.0, 0.0, 1.0), eta=0.0)
        assert check_dissipativity_triplet(spec) == 0.0

    def test_scalar_multiplicative_margin_is_zero(self):
        # F = 0, B(t, u) = u, alpha = -1: 2 * 0 - 1 - 0 + 1 = 0
        assert check_dissipativity_triplet(scalar_multiplicative_spec(-1.0)) == 0.0
        assert check_dissipativity_triplet(scalar_multiplicative_spec(-1.0), alpha=0.0) == -1.0

    def test_lipschitz_lower_bound(self):
        # f = r^3 + lam r gives 2<dF, y> >= 2 lam |y|^2 with equality as
        # u -> v -> 0, so the raw margin is exactly 2 lam - L_B^2 - L_G^2
        lam = 0.7
        n = 9
        A = dirichlet_laplacian(n)
        q = np.array([1.0, 0.5])
        scale_b = np.array([0.2, 0.1])
        B = DiffusionCoefficient(np.zeros((n, 2)), scale_b, q)
        marks = MarkSpace((-1.0, 2.0), (1.5, 0.5))
        scale_g = np.array([0.15, 0.1])
        G = JumpCoefficient(np.zeros((n, 2)), scale_g, marks)
        spec = EquationSpec(A=A, F=Nonlinearity((0.0, lam, 0.0, 1.0)), B=B, G=G,
                            u0=np.zeros(n), T=1.0, alpha=0.0)
        assert check_dissipativity_triplet(spec) == 2 * lam - B.lipschitz**2 - G.lipschitz**2
        assert check_dissipativity_triplet(spec, alpha=0.25) == \
            2 * lam - B.lipschitz**2 - G.lipschitz**2 - 0.25

    def test_invariant_under_atom_relabeling(self):
        n = 6
        A = dirichlet_laplacian(n)
        marks = MarkSpace((-1.0, 0.5, 2.0), (1.0, 2.0, 0.5))
        base = np.random.default_rng(8).standard_normal((n, 3)) * 0.1
        scale = np.array([0.1, 0.05, 0.2])
        order = [2, 0, 1]
        spec1 = EquationSpec(
            A=A, F=Nonlinearity((0.0, 0.0, 0.0, 1.0)),
            B=DiffusionCoefficient.zero(n, 1),
            G=JumpCoefficient(base, scale, marks),
            u0=np.zeros(n), T=1.0, alpha=0.0)
        relabeled = MarkSpace(tuple(marks.atoms[j] for j in order),
                              tuple(marks.weights[j] for j in order))
        spec2 = spec1.with_data(G=JumpCoefficient(base[:, order], scale[order], relabeled))
        assert check_dissipativity_triplet(spec1) == check_dissipativity_triplet(spec2)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0, -40.0), (0.0, 0.0, 1.0),
                                        (0.0, 0.0, 0.0, 0.0, -1.0)])
    def test_unbounded_drift_derivative_gives_minus_inf(self, coeffs):
        # f' of odd degree, or of even degree with a negative leading coefficient
        spec = make_cubic_spec(n=5, f_coeffs=coeffs)
        assert check_dissipativity_triplet(spec) == -np.inf
        assert check_dissipativity_triplet(spec, alpha=-100.0) == -np.inf


class TestNorms:
    @pytest.mark.parametrize("kind", ["q", "m"])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_weighted_norm_two_ways(self, kind, seed):
        # covariance weights q or the weights m of a mark space, against the
        # Frobenius norm and the column-by-column sum
        rng = np.random.default_rng(seed)
        space = HilbertSpace(5, 1.0 / 6.0)
        mat = rng.standard_normal((5, 3))
        weights = (rng.uniform(0.0, 2.0, 3) if kind == "q"
                   else MarkSpace((0.0, 1.0, 3.0), (0.5, 1.5, 2.0)).weight_array)
        direct = weighted_norm(mat, weights, space)
        frobenius = np.sqrt(space.weight) * np.linalg.norm(mat * np.sqrt(weights), "fro")
        brute = sum(w * space.norm(mat[:, k]) ** 2 for k, w in enumerate(weights))
        assert direct == pytest.approx(frobenius, abs=1e-10)
        assert direct ** 2 == pytest.approx(brute, rel=1e-12)

    def test_sampled_lipschitz_bounds_hold(self):
        rng = np.random.default_rng(12)
        space = HilbertSpace(6, 1.0 / 7.0)
        q = np.array([1.0, 0.5])
        B = DiffusionCoefficient(rng.standard_normal((6, 2)), [0.3, 0.1], q)
        marks = MarkSpace((-1.0, 1.0), (1.0, 2.0))
        G = JumpCoefficient(rng.standard_normal((6, 2)), [0.2, 0.05], marks)
        def at(coeff, u):  # column k is base[:, k] + state_scale[k] u
            return coeff.base + np.outer(u, coeff.state_scale)

        for _ in range(200):
            u, v = rng.standard_normal((2, 6))
            gap = space.norm(u - v)
            assert weighted_norm(at(B, u) - at(B, v), q, space) <= B.lipschitz * gap + 1e-12
            assert (weighted_norm(at(G, u) - at(G, v), marks.weight_array, space)
                    <= G.lipschitz * gap + 1e-12)


class TestCoefficientsAndSpec:
    def test_mark_space_validation(self):
        with pytest.raises(ValueError):
            MarkSpace((), ())
        with pytest.raises(ValueError):
            MarkSpace((1.0,), (-0.5,))
        with pytest.raises(ValueError):
            MarkSpace((1.0, 2.0), (1.0,))
        assert MarkSpace((0.0, 1.0), (1.0, 3.0)).total_mass == 4.0

    def test_diffusion_validation(self):
        with pytest.raises(ValueError):
            DiffusionCoefficient.constant(np.zeros((3, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            DiffusionCoefficient(np.zeros((3, 2)), [0.1], np.array([1.0, 1.0]))
        assert DiffusionCoefficient.constant(np.zeros((3, 2)), np.array([1.0, 0.0])).additive

    @pytest.mark.parametrize("q, message", [
        (np.array([1.0, -1.0]), "covariance weights must be nonnegative"),
        (np.ones((2, 1)), "q must be a 1-D array"),
    ])
    def test_coefficient_and_sampler_refuse_q_alike(self, q, message):
        # one covariance check serves the coefficient and the noise samplers
        with pytest.raises(ValueError, match=message):
            DiffusionCoefficient.constant(np.zeros((3, 2)), q)
        with pytest.raises(ValueError, match=message):
            sample_wiener(q, TimeGrid(1.0, 4), 0)

    def test_additive_flag_tracks_state_scale(self):
        q = np.array([1.0])
        assert DiffusionCoefficient(np.ones((2, 1)), [0.0], q).additive
        assert not DiffusionCoefficient(np.ones((2, 1)), [0.5], q).additive

    def test_spec_validation(self):
        A = dirichlet_laplacian(4)
        B = DiffusionCoefficient.zero(4)
        G = JumpCoefficient.zero(4)
        with pytest.raises(ValueError):
            EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G,
                         u0=np.zeros(5), T=1.0)
        with pytest.raises(ValueError):
            EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G,
                         u0=np.zeros(4), T=0.0)
        with pytest.raises(ValueError):
            EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G,
                         u0=np.array([np.nan, 0, 0, 0]), T=1.0)

    def test_fingerprint_stability_and_sensitivity(self):
        spec = make_cubic_spec(n=7)
        again = make_cubic_spec(n=7)
        assert spec.fingerprint() == again.fingerprint()
        moved = spec.with_data(u0=spec.u0 + 1e-9)
        assert spec.fingerprint() != moved.fingerprint()

    def test_with_data_replaces_fields(self):
        spec = make_cubic_spec(n=7)
        other = spec.with_data(alpha=0.5, T=1.0)
        assert other.alpha == 0.5 and other.T == 1.0
        assert other.A is spec.A
