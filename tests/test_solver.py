import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildsde.errors import BlowUpError, ConfigurationError, StiffnessWarning
from mildsde.model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                           Nonlinearity)
from mildsde.noise import (POISSON_SEED_OFFSET, NoiseBatch, PoissonPath, TimeGrid, WienerPath,
                           coarsen_wiener, quadratic_mark_sum, sample_noise_batch, sample_poisson,
                           sample_wiener)
from mildsde import solver
from mildsde.solver import (_BLOCK_VALUES, SchemeConfig, ito_energy_residual, ito_energy_terms,
                            regularized_coupling_identity, solve, solve_exp_euler,
                            solve_linear_data, solve_resolvent_implicit, solve_yosida_explicit,
                            step_ensemble)
from mildsde.space import SpectralOperator, dirichlet_laplacian, resolvent_apply

from conftest import make_cubic_spec, make_linear_spec


def noise_free_spec(A, u0, T=0.5):
    n = A.dim
    return EquationSpec(A=A, F=Nonlinearity.zero(),
                        B=DiffusionCoefficient.zero(n),
                        G=JumpCoefficient.zero(n),
                        u0=u0, T=T)


def noise_for(spec, dt, seed=0):
    """Ensemble member 0 of the run seed ``seed``, a NoiseBatch of one."""
    return sample_noise_batch(spec.B.q, spec.marks, TimeGrid(spec.T, round(spec.T / dt)), seed, 1)


# ---------------------------------------------------------------------------
# Reference stepper: the plain loop step_ensemble must reproduce bit for bit.
# It projects the noise factors every step and forms the increment as
# u * scale + base, evaluates dt * max|f'(u)| every step until it warns,
# checks isfinite for blow-up, and evaluates f by textbook Horner's rule on
# fresh arrays.  The increment's earlier association, which moves the last
# bits, is kept as a tolerance oracle.
# ---------------------------------------------------------------------------


def reference_polynomial(coefficients, u):
    u = np.asarray(u, dtype=float)
    if not coefficients:
        return np.zeros_like(u)
    out = np.full_like(u, coefficients[-1])
    for c in coefficients[-2::-1]:
        out = out * u + c
    return out


def reference_step_map(A, config):
    """The scheme's linear one-step map written out from A's eigenpairs, apart from
    the operator's own maps: exp(-dt A), (I + dt A)^{-1} or I - dt A_eps."""
    V, w, lam, dt = A.eigenvectors, A.space.weight, A.eigenvalues, config.dt
    if config.scheme == "yosida_explicit":
        return np.eye(A.dim) - dt * (V * (lam / (1.0 + config.epsilon * lam))) @ (w * V.T)
    factors = np.exp(-dt * lam) if config.scheme == "exp_euler" else 1.0 / (1.0 + dt * lam)
    return (V * factors) @ (w * V.T)


def reference_step_ensemble(spec, dW, counts, config):
    members, steps = dW.shape[:2]
    dt = config.dt
    explicit = config.scheme == "yosida_explicit"
    prop = reference_step_map(spec.A, config)
    f = spec.F.coefficients
    fprime = spec.F.derivative_coefficients()
    drift_varies = len(fprime) > 1
    cap = dt * abs(fprime[0]) if len(fprime) == 1 else 0.0
    b_base, b_scale = spec.B.base, spec.B.state_scale
    g_base, g_scale = spec.G.base, spec.G.state_scale
    mark_w = spec.marks.weight_array
    g_comp = dt * (g_base @ mark_w)
    s_comp = dt * float(g_scale @ mark_w)
    U = np.repeat(spec.u0[:, None], members, axis=1)
    states = np.empty((members, steps + 1, spec.A.dim))
    states[:, 0, :] = spec.u0
    warned = False
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            if not warned:
                if drift_varies:
                    cap = dt * float(np.abs(reference_polynomial(fprime, U)).max())
                if cap >= 1.0:
                    warnings.warn(
                        f"explicit drift step outside safety region at step {n}: "
                        f"dt*max|f'(u)| = {cap:.3g} >= 1",
                        StiffnessWarning, stacklevel=2)
                    warned = True
            fu = reference_polynomial(f, U)
            base = b_base @ dW[:, n, :].T + g_base @ counts[:, n, :].T - g_comp[:, None]
            scale = dW[:, n, :] @ b_scale + counts[:, n, :] @ g_scale - s_comp
            inc = U * scale + base
            if explicit:
                U = prop @ U - dt * fu + inc
            else:
                U = prop @ (U - dt * fu + inc)
            if not np.isfinite(U).all():
                t = (n + 1) * (spec.T / steps)
                raise BlowUpError(
                    f"{config.scheme} produced a non-finite state at step {n + 1} (t={t:.6g})",
                    step=n + 1, time=t)
            states[:, n + 1, :] = U.T
    return states


def old_association_oracle(spec, dW, counts, config):
    """States (M, N+1, n) of the increment in its earlier association,
    (b + U s_b) + (g + U s_g) - (comp + s_comp U), and a bound (M, N+1) on each
    member's distance |.|_2 at each node from the states of base + U scale.

    First order in eps, per member: each association is within 4 eps mag of the
    exact increment (five terms, mag = |b| + |g| + |comp| + |U| (|s_b| + |s_g| +
    |s_comp|)); the rest of a step, the same operations on inputs that differ,
    rounds each run by at most (n + 3) eps |P| (|U| + dt |F(U)| + |inc|); and the
    step map is Lipschitz with lam = |P|_2 max|1 - dt f'(U) + scale| (implicit forms)
    or the lesser of |P|_2 + max|dt f'(U) - scale| and max|1 - dt f'(U) + scale| +
    |I - P|_2 (explicit, P + diag(scale - dt f'(U)) written two ways).  So e_0 = 0 and
    e_{k+1} <= lam e_k + r_k: relative to |U|, the bound is a sum over the steps of
    eps times a condition number r_k / (eps |U|) of one step, amplified by the
    product of lam, so it grows with the step count and the conditioning.
    """
    members, steps = dW.shape[:2]
    dt, eps, n = config.dt, np.finfo(float).eps, spec.A.dim
    explicit = config.scheme == "yosida_explicit"
    prop = reference_step_map(spec.A, config)
    norm_p, norm_abs_p = np.linalg.norm(prop, 2), np.linalg.norm(np.abs(prop), 2)
    norm_rest = np.linalg.norm(np.eye(n) - prop, 2)
    f, fprime = spec.F.coefficients, spec.F.derivative_coefficients()
    mark_w = spec.marks.weight_array
    g_comp = dt * (spec.G.base @ mark_w)[:, None]
    s_comp = dt * float(spec.G.state_scale @ mark_w)
    U = np.repeat(spec.u0[:, None], members, axis=1)
    states, bound = np.empty((members, steps + 1, n)), np.zeros((members, steps + 1))
    states[:, 0] = spec.u0
    for k in range(steps):
        b, g = spec.B.base @ dW[:, k].T, spec.G.base @ counts[:, k].T
        s_b, s_g = dW[:, k] @ spec.B.state_scale, counts[:, k] @ spec.G.state_scale
        inc = (b + U * s_b) + (g + U * s_g) - (g_comp + s_comp * U)
        mag = abs(b) + abs(g) + abs(g_comp) + abs(U) * (abs(s_b) + abs(s_g) + abs(s_comp))
        fu = dt * reference_polynomial(f, U)
        slope = dt * reference_polynomial(fprime, U) - (s_b + s_g - s_comp)
        lam = abs(1.0 - slope).max(axis=0)
        lam = (np.minimum(norm_p + abs(slope).max(axis=0), lam + norm_rest) if explicit
               else norm_p * lam)
        norms = [np.linalg.norm(x, axis=0) for x in (mag, U, fu, inc)]
        r = 8 * eps * norms[0] + 2 * (n + 3) * eps * norm_abs_p * sum(norms[1:])
        bound[:, k + 1] = lam * bound[:, k] + r
        U = prop @ U - fu + inc if explicit else prop @ (U - fu + inc)
        states[:, k + 1] = U.T
    return states, bound


def stepper_outcome(stepper, spec, dW, counts, config):
    """(states or the BlowUpError's (step, time, text), [(category, text) of each warning])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = stepper(spec, dW, counts, config)
        except BlowUpError as err:
            result = (err.step, err.time, str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def step_configs(spec, dW, counts, configs):
    """step_ensemble with a group of ``spec`` per config: states (G, M, N+1, n)."""
    return step_ensemble(dW, counts, tuple((spec, config) for config in configs))


def step_one(spec, dW, counts, config):
    """step_ensemble under the one config: states (M, N+1, n)."""
    return step_configs(spec, dW, counts, (config,))[0]


def assert_same_outcome(spec, dW, counts, config):
    """step_ensemble and the reference agree bit for bit; returns the outcome."""
    got, got_warnings = stepper_outcome(step_one, spec, dW, counts, config)
    want, want_warnings = stepper_outcome(reference_step_ensemble, spec, dW, counts, config)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if not (spec.B.additive and spec.G.additive):
            old, bound = old_association_oracle(spec, dW, counts, config)
            assert (np.linalg.norm(got - old, axis=2) <= bound).all()
    return want, want_warnings


def stepper_case(f_coeffs, n, members, steps, seed=0, dt=2.0**-12,
                 b_scale=(0.05, -0.02), g_scale=(0.02, 0.03)):
    """A spec with (by default state-dependent) B and G on the Laplacian, and noise with
    jumps present."""
    rng = np.random.default_rng(seed)
    A = dirichlet_laplacian(n)
    q = np.array([1.0, 0.25])
    B = DiffusionCoefficient(0.3 * rng.standard_normal((n, 2)), b_scale, q)
    marks = MarkSpace((-1.0, 1.0), (40.0, 20.0))
    G = JumpCoefficient(0.1 * rng.standard_normal((n, 2)), g_scale, marks)
    spec = EquationSpec(A=A, F=Nonlinearity(f_coeffs), B=B, G=G,
                        u0=0.5 * rng.standard_normal(n), T=steps * dt)
    dW = np.sqrt(dt * q) * rng.standard_normal((members, steps, 2))
    counts = rng.poisson(dt * marks.weight_array, (members, steps, 2)).astype(float)
    assert counts.sum() > 0
    return spec, dW, counts


def scheme_config(scheme, dt=2.0**-12):
    # epsilon = 8 dt keeps dt * lam_eps below 1/8 for every operator
    return SchemeConfig(scheme, dt, 8 * dt if scheme == "yosida_explicit" else None)


def scheme_configs(scheme, count, dt=2.0**-12):
    """``count`` configs of ``scheme``; "mixed" alternates the step forms,
    yosida_explicit, resolvent_implicit, yosida_explicit, ..."""
    if scheme != "mixed":
        return (scheme_config(scheme, dt),) * count
    return tuple(scheme_config(("yosida_explicit", "resolvent_implicit")[g % 2], dt)
                 for g in range(count))


CUBIC = (0.0, -1.0, 0.0, 1.0)


class TestStepperBitIdentity:
    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("members,n", [(1, 31), (3, 31), (700, 7)])
    def test_matches_reference_across_a_block_boundary(self, scheme, members, n):
        steps = _BLOCK_VALUES // (members * n) + 6
        spec, dW, counts = stepper_case(CUBIC, n, members, steps, seed=members)
        states, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert states.shape == (members, steps + 1, n) and not caught

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("f_coeffs", [(), (0.7,), (0.0, -2.0), CUBIC],
                             ids=["zero", "constant", "linear", "cubic"])
    def test_matches_reference_for_each_drift(self, scheme, f_coeffs):
        spec, dW, counts = stepper_case(f_coeffs, 9, 3, 40, seed=len(f_coeffs))
        assert_same_outcome(spec, dW, counts, scheme_config(scheme))

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_blow_up_matches_reference(self, scheme):
        spec, dW, counts = stepper_case((0.0, 0.0, 0.0, -40.0), 5, 3, 12, dt=2.0**-3)
        spec = spec.with_data(u0=np.full(5, 3.0))
        outcome, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme, 2.0**-3))
        assert isinstance(outcome, tuple) and outcome[0] >= 1
        assert [category for category, _ in caught] == [StiffnessWarning]

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("members,n", [(1, 31), (3, 31), (700, 7)])
    @pytest.mark.parametrize("f_coeffs", [(), CUBIC], ids=["zero", "cubic"])
    def test_additive_noise_matches_reference_across_a_block_boundary(self, scheme, members,
                                                                      n, f_coeffs):
        # both state scales zero: the increments are formed once per block
        steps = _BLOCK_VALUES // (members * n) + 6
        spec, dW, counts = stepper_case(f_coeffs, n, members, steps, seed=members,
                                        b_scale=(0.0, 0.0), g_scale=(0.0, 0.0))
        assert spec.B.additive and spec.G.additive
        states, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert states.shape == (members, steps + 1, n) and not caught

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("b_scale,g_scale", [((0.0, 0.0), (0.02, 0.03)),
                                                 ((0.05, -0.02), (0.0, 0.0))],
                             ids=["b_additive", "g_additive"])
    def test_one_additive_coefficient_matches_reference(self, scheme, b_scale, g_scale):
        # one zero scale is not enough for the state-free increment
        spec, dW, counts = stepper_case(CUBIC, 9, 3, 40, seed=5, b_scale=b_scale,
                                        g_scale=g_scale)
        assert spec.B.additive != spec.G.additive
        assert_same_outcome(spec, dW, counts, scheme_config(scheme))

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_additive_blow_up_matches_reference(self, scheme):
        spec, dW, counts = stepper_case((0.0, 0.0, 0.0, -40.0), 5, 3, 12, dt=2.0**-3,
                                        b_scale=(0.0, 0.0), g_scale=(0.0, 0.0))
        spec = spec.with_data(u0=np.full(5, 3.0))
        outcome, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme, 2.0**-3))
        assert isinstance(outcome, tuple) and outcome[0] >= 1
        assert [category for category, _ in caught] == [StiffnessWarning]

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("edge", [0, -1, 1], ids=["first_step", "last_of_block",
                                                      "first_of_block"])
    def test_blow_up_at_a_block_edge_matches_reference(self, scheme, members, edge):
        # an infinite increment at step `at` makes state at + 1 non-finite at once:
        # on the very first step, on the last step of the first block or on the
        # first step of the second
        block = _BLOCK_VALUES // (members * 31)
        at = {0: 0, -1: block - 1, 1: block}[edge]
        spec, dW, counts = stepper_case(CUBIC, 31, members, 2 * block + 6, seed=members)
        dW[members - 1, at] = np.inf
        outcome, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert outcome[0] == at + 1 and not caught

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("offset", [-1, 40])
    def test_warning_first_fired_in_a_later_block_matches_reference(self, scheme, offset):
        # a kick at step block + offset lifts dt*max|f'(u)| past 1 at the next
        # step: the first step of the second block, or one inside it
        block = _BLOCK_VALUES // 31
        spec, dW, counts = stepper_case(CUBIC, 31, 1, 2 * block + 6)
        dW[0, block + offset] = 60.0
        states, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert states.shape == (1, 2 * block + 7, 31)
        [(category, text)] = caught
        assert category is StiffnessWarning and f"at step {block + offset + 1}:" in text

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_warning_and_blow_up_in_one_block_match_reference(self, scheme):
        # a larger kick warns at step block + 41 and then overflows the cubic
        # drift a few steps later, within the same block
        block = _BLOCK_VALUES // 31
        spec, dW, counts = stepper_case(CUBIC, 31, 1, 2 * block + 6)
        dW[0, block + 40] = 200.0
        outcome, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert block + 41 < outcome[0] <= 2 * block
        [(category, text)] = caught
        assert category is StiffnessWarning and f"at step {block + 41}:" in text

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_initial_state_matches_reference(self, scheme, bad):
        # EquationSpec refuses a non-finite u0, so it is set past that check:
        # the stepper still steps once, warns only where f'(u0) is infinite
        # and reports the blow-up at step 1
        spec, dW, counts = stepper_case(CUBIC, 31, 1, 200)
        u0 = spec.u0.copy()
        u0[3] = bad
        object.__setattr__(spec, "u0", u0)
        outcome, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert outcome[0] == 1
        assert [category for category, _ in caught] == ([StiffnessWarning] if bad > 0 else [])

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_stiff_constant_derivative_warns_once_over_many_blocks(self, scheme):
        # f = 1.5/dt * u: dt*|f'| = 1.5 at every step, and u - dt f(u) = -u/2 stays bounded
        block = _BLOCK_VALUES // 31
        spec, dW, counts = stepper_case((0.0, 1.5 * 2.0**12), 31, 1, 3 * block + 5)
        states, caught = assert_same_outcome(spec, dW, counts, scheme_config(scheme))
        assert states.shape == (1, 3 * block + 6, 31)
        assert caught == [(StiffnessWarning, "explicit drift step outside safety region at "
                                             "step 0: dt*max|f'(u)| = 1.5 >= 1")]

    @pytest.mark.parametrize("coefficients", [(), (-0.0,), (2.5,), (0.0, -1.0), (-0.0, 1.5, -0.0),
                                              (0.0, -1.0, 0.0, 1.0), (1e-3, -0.0, 2.0, -0.0, -4.0)])
    def test_polynomial_matches_reference_horner(self, coefficients):
        # f(x, out=buf) returns buf, holding the same bytes
        u = np.concatenate(([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, np.inf],
                            np.random.default_rng(3).standard_normal(17))).reshape(4, 6)
        f = Nonlinearity(coefficients)
        for x in (u, -u, u[0, 1], np.float64(-0.0)):
            buf = np.full(np.shape(x), 7.0)
            with np.errstate(over="ignore", invalid="ignore"):
                got, want, into = f(x), reference_polynomial(f.coefficients, x), f(x, out=buf)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert into is buf and buf.tobytes() == np.asarray(want).tobytes()
        if len(coefficients) == 1:
            assert np.array_equal(f(u), np.full(u.shape, coefficients[0]))

    def test_polynomial_keeps_the_bits_of_textbook_horner_exhaustively(self):
        # every coefficient tuple of degree 1 to 4 over six values, signed zeros among
        # them, on inputs with signed zeros, infinities, nan and 1e+-300, each also
        # negated: skipping the multiply by a leading 1 and the adds of zeros above the
        # constant term keeps every bit (18,648 cases).  Each instance is called four
        # times, both ways on u and on -u, so three calls run the plan the first built
        values = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-3)
        u = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 1.0, -1.0,
                      0.5, 2.5, 3.0, -1e-3])
        buf = np.empty_like(u)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for degree in range(1, 5):
                for coefficients in itertools.product(values, repeat=degree + 1):
                    f = Nonlinearity(coefficients)
                    for x in (u, -u):
                        want = reference_polynomial(f.coefficients, x).tobytes()
                        assert f(x).tobytes() == want, (coefficients, x)
                        plan = vars(f)["_horner"]
                        assert f(x, out=buf) is buf and buf.tobytes() == want, (coefficients, x)
                        assert vars(f)["_horner"] is plan


GROUPS = {
    "implicit_pair": (SchemeConfig("exp_euler", 2.0**-12),
                      SchemeConfig("resolvent_implicit", 2.0**-12)),
    "implicit_three": (SchemeConfig("resolvent_implicit", 2.0**-12),
                       SchemeConfig("exp_euler", 2.0**-12),
                       SchemeConfig("resolvent_implicit", 2.0**-12)),
    "yosida_two_eps": (SchemeConfig("yosida_explicit", 2.0**-12, 8 * 2.0**-12),
                       SchemeConfig("yosida_explicit", 2.0**-12, 32 * 2.0**-12)),
    "mixed_interleaved": (SchemeConfig("yosida_explicit", 2.0**-12, 8 * 2.0**-12),
                          SchemeConfig("resolvent_implicit", 2.0**-12),
                          SchemeConfig("yosida_explicit", 2.0**-12, 32 * 2.0**-12)),
}


class TestGroupedSteps:
    @pytest.mark.parametrize("group", sorted(GROUPS))
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("f_coeffs", [(0.7,), CUBIC], ids=["constant", "cubic"])
    @pytest.mark.parametrize("noise", ["additive", "multiplicative"])
    def test_grouped_call_matches_separate_calls_and_reference(self, group, members, f_coeffs,
                                                                noise):
        # across a block boundary of the grouped call, whose blocks are G times shorter
        configs = GROUPS[group]
        scales = {"b_scale": (0.0, 0.0), "g_scale": (0.0, 0.0)} if noise == "additive" else {}
        steps = _BLOCK_VALUES // (len(configs) * members * 31) + 6
        spec, dW, counts = stepper_case(f_coeffs, 31, members, steps, seed=members, **scales)
        assert (spec.B.additive and spec.G.additive) == (noise == "additive")
        grouped, caught = stepper_outcome(step_configs, spec, dW, counts, configs)
        assert grouped.shape == (len(configs), members, steps + 1, 31) and not caught
        for states, config in zip(grouped, configs):
            separate, _ = assert_same_outcome(spec, dW, counts, config)
            assert np.array_equal(states.view(np.int64), separate.view(np.int64))

    def test_solve_matches_the_single_scheme_solves(self):
        spec = make_cubic_spec(n=9)
        dt = 2.0**-7
        noise = noise_for(spec, dt, seed=2)
        a, b = solve(spec, noise, (SchemeConfig("exp_euler", dt),
                                   SchemeConfig("resolvent_implicit", dt)))
        for got, want in ((a, solve_exp_euler(spec, noise, dt)),
                          (b, solve_resolvent_implicit(spec, noise, dt))):
            assert np.array_equal(got.states.view(np.int64), want.states.view(np.int64))
            assert got.integrability == want.integrability
        assert not a.states.flags.writeable

    @pytest.mark.parametrize("configs", [
        (SchemeConfig("exp_euler", 2.0**-12), SchemeConfig("yosida_explicit", 2.0**-12, 0.1)),
        (SchemeConfig("yosida_explicit", 2.0**-12, 0.1), SchemeConfig("resolvent_implicit",
                                                                      2.0**-12)),
    ], ids=["exp_and_yosida", "yosida_and_resolvent"])
    def test_mixed_forms_match_the_single_form_calls(self, configs):
        spec, dW, counts = stepper_case(CUBIC, 9, 3, 40)
        for states, config in zip(step_configs(spec, dW, counts, configs), configs):
            want = step_one(spec, dW, counts, config)
            assert np.array_equal(states.view(np.int64), want.view(np.int64))
        # and solve's trajectories are those of one-config solves
        noise = noise_for(spec, spec.T / 40)
        for traj, config in zip(solve(spec, noise, configs), configs):
            alone, = solve(spec, noise, (config,))
            assert np.array_equal(traj.states.view(np.int64), alone.states.view(np.int64))
            assert traj.integrability == alone.integrability

    @pytest.mark.parametrize("configs", [
        (SchemeConfig("exp_euler", 2.0**-12), SchemeConfig("resolvent_implicit", 2.0**-11)),
        (SchemeConfig("yosida_explicit", 2.0**-12, 0.1),
         SchemeConfig("yosida_explicit", 2.0**-13, 0.1)),
        (SchemeConfig("exp_euler", 2.0**-12), SchemeConfig("yosida_explicit", 2.0**-13, 0.1)),
        (),
    ], ids=["two_dts", "yosida_two_dts", "mixed_two_dts", "empty"])
    def test_two_dts_or_no_group_are_refused(self, configs):
        spec, dW, counts = stepper_case(CUBIC, 9, 3, 40)
        with pytest.raises(ConfigurationError, match="one or more groups of one dt"):
            step_configs(spec, dW, counts, configs)
        # so does solve; no configs at all take the stepper's own error
        with pytest.raises(ConfigurationError,
                           match=None if configs else "one or more groups of one dt"):
            solve(spec, noise_for(spec, spec.T / 40), configs)

    @staticmethod
    def running_away(u0_sq, steps=400):
        # dt * lam = 1/4 and dt * f = -u**3: the unstable fixed point of the
        # resolvent map is at u**2 = 0.25, the exponential one's at 0.284, so
        # u0**2 = 0.27 runs away under resolvent_implicit alone and 0.3 under
        # both, resolvent_implicit first; each warns where dt * f'(u) = 3 u**2
        # reaches 1
        spec = EquationSpec(A=SpectralOperator.diagonal([2.0]), F=Nonlinearity((0.0, 0.0, 0.0,
                                                                                 -8.0)),
                            B=DiffusionCoefficient.zero(1), G=JumpCoefficient.zero(1),
                            u0=np.array([u0_sq ** 0.5]), T=steps * 0.125)
        return spec, np.zeros((1, steps, 1)), np.zeros((1, steps, 1))

    @pytest.mark.parametrize("u0_sq,blowups", [(0.27, 1), (0.3, 2)],
                             ids=["one_blows_up", "both_blow_up"])
    @pytest.mark.parametrize("order", [1, -1], ids=["exp_first", "resolvent_first"])
    def test_the_first_blow_up_raises_its_own_error(self, u0_sq, blowups, order):
        spec, dW, counts = self.running_away(u0_sq)
        configs = (SchemeConfig("exp_euler", 0.125),
                   SchemeConfig("resolvent_implicit", 0.125))[::order]
        separate = [stepper_outcome(step_one, spec, dW, counts, c) for c in configs]
        errors = [outcome for outcome, _ in separate if isinstance(outcome, tuple)]
        assert len(errors) == blowups
        assert min(errors)[2].startswith("resolvent_implicit produced a non-finite state")
        grouped, caught = stepper_outcome(step_configs, spec, dW, counts, configs)
        assert grouped == min(errors)
        # one warning per group that warns, with the text of its own call
        assert caught == [w for _, warned in separate for w in warned]
        assert [category for category, _ in caught] == [StiffnessWarning] * len(caught)
        assert len(caught) >= blowups

    def test_coupling_stays_inconclusive_when_one_scheme_blows_up(self):
        from mildsde.analysis import INCONCLUSIVE, coupling_uniqueness_experiment
        spec, _, _ = self.running_away(0.27)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StiffnessWarning)
            report = coupling_uniqueness_experiment(spec, 3, [0.125, 0.0625, 0.03125])
        assert report.verdict == INCONCLUSIVE
        assert math.isnan(report.summary["gaps"][0])
        assert math.isnan(report.summary["integrability"][0])


def data_specs(spec, count, noise):
    """``count`` specs on spec's frame that differ in u0, B and G.  Multiplicative
    noise makes group 0 additive, so the groups mix both kinds."""
    rng = np.random.default_rng(count)
    specs = []
    for g in range(count):
        additive = noise == "additive" or g == 0
        B = DiffusionCoefficient((1.0 + 0.2 * g) * spec.B.base,
                                 (0.0 if additive else 1.0 - 0.1 * g) * spec.B.state_scale,
                                 spec.B.q)
        G = JumpCoefficient(spec.G.base + 0.02 * g,
                            (0.0 if additive else 1.0 + 0.1 * g) * spec.G.state_scale,
                            spec.marks)
        u0 = spec.u0 + 0.1 * g * rng.standard_normal(spec.A.dim)
        specs.append(spec.with_data(u0=u0, B=B, G=G))
    return tuple(specs)


def assert_groups_match_reference(spec, specs, dW, counts, configs):
    """One call of the groups zip(specs, configs) and a reference call per group
    agree bit for bit: states, or the first group's BlowUpError; returns the
    grouped warnings and those of each reference call."""
    def step_groups(_, dW, counts, configs):
        return step_ensemble(dW, counts, tuple(zip(specs, configs)))

    grouped, caught = stepper_outcome(step_groups, spec, dW, counts, configs)
    separate = [stepper_outcome(reference_step_ensemble, s, dW, counts, c)
                for s, c in zip(specs, configs)]
    errors = [outcome for outcome, _ in separate if isinstance(outcome, tuple)]
    if errors:   # the earliest blow-up, the lowest group on ties
        assert grouped == min(errors, key=lambda error: error[0])
    else:
        assert grouped.shape == (len(specs),) + separate[0][0].shape
        for states, (want, _) in zip(grouped, separate):
            assert np.array_equal(states.view(np.int64), want.view(np.int64))
    return caught, [warned for _, warned in separate]


class TestDataGroups:
    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit",
                                        "mixed"])
    @pytest.mark.parametrize("noise", ["additive", "multiplicative"])
    @pytest.mark.parametrize("groups,members", [(2, 3), (5, 300)],
                             ids=["one_slice", "three_slices"])
    def test_each_group_matches_a_reference_call(self, scheme, noise, groups, members):
        # 2 groups of 3 members cross a block boundary; 5 groups of 300 step in
        # slices of 128, 128 and 44 members; "mixed" interleaves the step forms
        steps = _BLOCK_VALUES // (groups * members * 31) + 6
        spec, dW, counts = stepper_case(CUBIC, 31, members, steps, seed=groups)
        specs = data_specs(spec, groups, noise)
        caught, _ = assert_groups_match_reference(spec, specs, dW, counts,
                                                  scheme_configs(scheme, groups))
        assert not caught

    @staticmethod
    def narrow_slices(monkeypatch, groups, n=9):
        # slices of 4 members, so 11 members step as 4 + 4 + 3
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 4 * groups * n)

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit",
                                        "mixed"])
    @pytest.mark.parametrize("noise", ["additive", "multiplicative"])
    @pytest.mark.parametrize("members", [9, 11])
    def test_narrow_slices_keep_the_bits(self, scheme, noise, members, monkeypatch):
        # 11 members step as 4 + 4 + 3; of 9, the ninth joins the slice before it,
        # since a one-member slice would take a matrix-vector product
        self.narrow_slices(monkeypatch, 3)
        spec, dW, counts = stepper_case(CUBIC, 9, members, 40, seed=4)
        specs = data_specs(spec, 3, noise)
        caught, _ = assert_groups_match_reference(spec, specs, dW, counts,
                                                  scheme_configs(scheme, 3))
        assert not caught
        # config groups, whose projections all specs share, slice the same way
        configs = GROUPS["mixed_interleaved" if scheme == "mixed" else "implicit_pair"]
        self.narrow_slices(monkeypatch, len(configs))
        grouped = step_configs(spec, dW, counts, configs)
        for states, config in zip(grouped, configs):
            want = reference_step_ensemble(spec, dW, counts, config)
            assert np.array_equal(states.view(np.int64), want.view(np.int64))

    def test_reducer_sees_every_node_of_every_slice_once(self, monkeypatch):
        self.narrow_slices(monkeypatch, 2)
        spec, dW, counts = stepper_case(CUBIC, 9, 11, 40)
        specs = data_specs(spec, 2, "multiplicative")
        groups = tuple((s, scheme_config("exp_euler")) for s in specs)
        want = step_ensemble(dW, counts, groups)
        got, seen = np.full_like(want, np.nan), []

        def reduce(node, cols, states):
            assert states.shape == (len(states), 2, 9, cols.stop - cols.start)
            seen.append((node, cols.start, cols.stop))
            got[:, cols, node:node + len(states)] = states.transpose(1, 3, 0, 2)

        assert step_ensemble(dW, counts, groups, reduce) is None
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert [s[1:] for s in seen[:3]] == [(0, 4), (4, 8), (8, 11)]
        assert [s[0] for s in seen] == [node for node in range(41) for _ in range(3)]

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit",
                                        "mixed"])
    def test_blow_up_in_the_last_slice_matches_reference(self, scheme, monkeypatch):
        self.narrow_slices(monkeypatch, 2)
        spec, dW, counts = stepper_case(CUBIC, 9, 11, 40)
        dW[10, 17] = np.inf
        caught, separate = assert_groups_match_reference(
            spec, data_specs(spec, 2, "multiplicative"), dW, counts, scheme_configs(scheme, 2))
        assert not caught and not any(separate)

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit",
                                        "mixed"])
    def test_stiffness_in_a_later_slice_warns_once_per_group(self, scheme, monkeypatch):
        # a kick to member 10, in the last slice, lifts dt*max|f'(u)| past 1
        self.narrow_slices(monkeypatch, 2)
        spec, dW, counts = stepper_case(CUBIC, 9, 11, 40)
        dW[10, 17] = 150.0
        caught, separate = assert_groups_match_reference(
            spec, data_specs(spec, 2, "additive"), dW, counts, scheme_configs(scheme, 2))
        assert all(len(warned) == 1 for warned in separate)
        assert sorted(caught) == sorted(w for warned in separate for w in warned)
        assert all("at step 18:" in text for _, text in caught)

    @staticmethod
    def runaway_pair(scheme):
        # dt * f'(u) = -3 u**2 under f = -8 u**3 at dt = 1/8: the second group,
        # from u0 = 0.8, warns at step 0 and runs away first; the first, from
        # u0 = 0.55, warns a few steps later and blows up later still
        dt = 0.125
        spec = EquationSpec(A=SpectralOperator.diagonal([2.0]),
                            F=Nonlinearity((0.0, 0.0, 0.0, -8.0)),
                            B=DiffusionCoefficient.constant(0.1 * np.ones((1, 1)), np.ones(1)),
                            G=JumpCoefficient.zero(1), u0=np.array([0.55]), T=400 * dt)
        specs = (spec, spec.with_data(u0=np.array([0.8])))
        dW = np.sqrt(dt) * np.random.default_rng(0).standard_normal((3, 400, 1))
        return spec, specs, dW, np.zeros((3, 400, 1)), scheme_configs(scheme, 2, dt)

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_blow_ups_and_warnings_at_different_steps_in_one_block(self, scheme):
        # the runaway pair, all in one block: the grouped call raises the second
        # group's error and issues each group's warning at its own step
        spec, specs, dW, counts, configs = self.runaway_pair(scheme)
        caught, separate = assert_groups_match_reference(spec, specs, dW, counts, configs)
        blowups = [stepper_outcome(reference_step_ensemble, s, dW, counts, c)[0][0]
                   for s, c in zip(specs, configs)]
        assert blowups[1] < blowups[0]
        assert caught == separate[0] + separate[1]
        steps = [int(text.split("at step ")[1].split(":")[0]) for _, text in caught]
        assert steps[1] == 0 < steps[0] < blowups[1]

    @pytest.mark.parametrize("order", [1, -1], ids=["implicit_first", "explicit_first"])
    def test_an_explicit_blow_up_beside_an_implicit_group(self, order):
        # f = -8 u**3, A = 8 and dt = 1/8: exp_euler steps u -> (u + u**3) / e,
        # which decays from u0 = 0.9, while yosida_explicit at eps = 1 steps
        # u -> (8/9) u + u**3, which runs away from u0 = 0.8.  Both warn at
        # step 0 (dt * f'(u0) = -3 u0**2), each with the text of its own call,
        # and the call raises the explicit group's error.
        dt = 0.125
        spec = EquationSpec(A=SpectralOperator.diagonal([8.0]),
                            F=Nonlinearity((0.0, 0.0, 0.0, -8.0)),
                            B=DiffusionCoefficient.constant(0.1 * np.ones((1, 1)), np.ones(1)),
                            G=JumpCoefficient.zero(1), u0=np.array([0.9]), T=400 * dt)
        specs = (spec, spec.with_data(u0=np.array([0.8])))[::order]
        configs = (SchemeConfig("exp_euler", dt),
                   SchemeConfig("yosida_explicit", dt, 1.0))[::order]
        dW = np.sqrt(dt) * np.random.default_rng(1).standard_normal((3, 400, 1))
        counts = np.zeros((3, 400, 1))
        caught, separate = assert_groups_match_reference(spec, specs, dW, counts, configs)
        outcomes = [stepper_outcome(step_one, s, dW, counts, c)
                    for s, c in zip(specs, configs)]
        error, = [outcome for outcome, _ in outcomes if isinstance(outcome, tuple)]
        assert error[2].startswith("yosida_explicit produced a non-finite state")
        with pytest.raises(BlowUpError) as raised:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StiffnessWarning)
                step_ensemble(dW, counts, tuple(zip(specs, configs)))
        assert (raised.value.step, raised.value.time, str(raised.value)) == error
        # one warning per group, in group order, each that of its own call
        assert caught == separate[0] + separate[1] == [w for _, warned in outcomes for w in warned]
        assert [category for category, _ in caught] == [StiffnessWarning] * 2
        for (_, text), u0 in zip(caught, (0.9, 0.8)[::order]):
            assert text.endswith(f"at step 0: dt*max|f'(u)| = {3 * u0**2:.3g} >= 1")

    @pytest.mark.parametrize("other,message", [
        (lambda s: s.with_data(F=Nonlinearity((0.0, 1.0))), "shared drift"),
        (lambda s: EquationSpec(A=s.A.scaled(2.0), F=s.F, B=s.B, G=s.G, u0=s.u0, T=s.T),
         "shared operator"),
        (lambda s: s.with_data(T=2.0 * s.T), "shared horizon"),
        (lambda s: s.with_data(B=DiffusionCoefficient(s.B.base, s.B.state_scale,
                                                      2.0 * s.B.q)), "covariance weights"),
        (lambda s: s.with_data(G=JumpCoefficient(s.G.base, s.G.state_scale,
                                                 MarkSpace((-1.0, 2.0), (40.0, 20.0)))),
         "mark space"),
    ], ids=["drift", "operator", "horizon", "covariance", "marks"])
    def test_a_mixed_frame_is_refused(self, other, message, monkeypatch):
        from mildsde import analysis

        def no_sampling(*args):
            raise AssertionError("noise sampled before the frame was checked")

        spec, dW, counts = stepper_case(CUBIC, 9, 3, 40)
        config = scheme_config("exp_euler")
        with pytest.raises(ConfigurationError, match=message):
            step_ensemble(dW, counts, ((spec, config), (other(spec), config)))
        monkeypatch.setattr(analysis, "sample_noise_batch", no_sampling)
        with pytest.raises(ConfigurationError, match=message):
            analysis._coupled_moments(spec, [spec, other(spec)], spec.T / 40, 1, 3)

    def test_shipped_size_keeps_the_bits_of_one_group_calls(self):
        # cauchy's shape: 5 additive data groups of 1000 members, n = 31, 128
        # steps, stepped in slices of 128 members; a group alone steps in one
        # slice of 1000.  Each state is compared by the XOR of the bits of its
        # 31 components, which differs wherever one component differs, so that
        # no (5, 1000, 129, 31) array is held.
        spec, dW, counts = stepper_case(CUBIC, 31, 1000, 128, seed=5, b_scale=(0.0, 0.0),
                                        g_scale=(0.0, 0.0))
        config = scheme_config("exp_euler")
        specs = data_specs(spec, 5, "additive")

        def folded_states(groups):
            out = np.empty((len(groups), 1000, 129), dtype=np.int64)

            def reduce(node, cols, states):
                bits = np.bitwise_xor.reduce(states.view(np.int64), axis=2)
                out[:, cols, node:node + len(states)] = bits.transpose(1, 2, 0)

            step_ensemble(dW, counts, groups, reduce)
            return out

        grouped = folded_states(tuple((s, config) for s in specs))
        for s, got in zip(specs, grouped):
            assert np.array_equal(got, folded_states(((s, config),))[0])

    @pytest.mark.parametrize("group", ["implicit_three", "yosida_two_eps", "mixed_interleaved"])
    def test_mixed_specs_and_schemes_match_the_reference(self, group):
        # each group pairs its own spec with its own config, in any step form
        configs = GROUPS[group]
        spec, dW, counts = stepper_case(CUBIC, 9, 5, 40, seed=6)
        specs = data_specs(spec, len(configs), "multiplicative")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grouped = step_ensemble(dW, counts, tuple(zip(specs, configs)))
        for states, s, config in zip(grouped, specs, configs):
            want = reference_step_ensemble(s, dW, counts, config)
            assert np.array_equal(states.view(np.int64), want.view(np.int64))


class TestInPlaceBlocks:
    # a slice's states are stepped in place in one (K, G, n, w) buffer: step k writes row k
    # from row k - 1 and row 0 from row K - 1, so a one-step block overwrites its own left
    # state, whose exact stiffness value is taken before the block steps

    @staticmethod
    def blocks_of(monkeypatch, K, groups=2, members=11, n=9):
        # blocks of K steps; for K = 1, slices of 8 and 3 members
        monkeypatch.setattr(solver, "_BLOCK_VALUES", K * groups * members * n)

    @pytest.mark.parametrize("scheme", ["exp_euler", "yosida_explicit", "mixed"],
                             ids=["implicit", "explicit", "mixed"])
    @pytest.mark.parametrize("noise", ["additive", "multiplicative"])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("kick", [17, 18], ids=["node_18", "node_19"])
    def test_stiff_left_state_matches_reference(self, scheme, noise, K, kick, monkeypatch):
        # a kick to member 10 at step `kick` lifts dt*max|f'(u)| past 1 at node kick + 1:
        # node 18 is a block's first left state for K = 3, node 19 its second row; for K = 1
        # every node is a block's first
        self.blocks_of(monkeypatch, K)
        spec, dW, counts = stepper_case(CUBIC, 9, 11, 40)
        dW[10, kick] = 150.0
        caught, separate = assert_groups_match_reference(
            spec, data_specs(spec, 2, noise), dW, counts, scheme_configs(scheme, 2))
        assert all(len(warned) == 1 for warned in separate)
        assert caught == separate[0] + separate[1]
        assert all(f"at step {kick + 1}:" in text for _, text in caught)

    @pytest.mark.parametrize("scheme", ["exp_euler", "yosida_explicit", "mixed"],
                             ids=["implicit", "explicit", "mixed"])
    @pytest.mark.parametrize("noise", ["additive", "multiplicative"])
    @pytest.mark.parametrize("K", [1, 3])
    def test_blow_up_matches_reference(self, scheme, noise, K, monkeypatch):
        # an infinite increment at step 17: state 18 is non-finite, the last row of a K = 3
        # block and the only row of a K = 1 block
        self.blocks_of(monkeypatch, K)
        spec, dW, counts = stepper_case(CUBIC, 9, 11, 40)
        dW[10, 17] = np.inf
        caught, separate = assert_groups_match_reference(
            spec, data_specs(spec, 2, noise), dW, counts, scheme_configs(scheme, 2))
        assert not caught and not any(separate)

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit", "yosida_explicit"])
    def test_warnings_and_blow_ups_in_one_step_blocks(self, scheme, monkeypatch):
        # TestDataGroups' runaway pair, one step per block: the second group warns on u0 in
        # the first block, the first group in a later one, and the second blows up first
        self.blocks_of(monkeypatch, 1, members=3, n=1)
        spec, specs, dW, counts, configs = TestDataGroups.runaway_pair(scheme)
        caught, separate = assert_groups_match_reference(spec, specs, dW, counts, configs)
        assert caught == separate[1] + separate[0]
        assert "at step 0:" in caught[0][1] and "at step 0:" not in caught[1][1]

    @pytest.mark.parametrize("order", [1, -1], ids=["implicit_first", "explicit_first"])
    def test_an_explicit_blow_up_in_one_step_blocks(self, order, monkeypatch):
        self.blocks_of(monkeypatch, 1, members=3, n=1)
        TestDataGroups().test_an_explicit_blow_up_beside_an_implicit_group(order)

    @pytest.mark.parametrize("scheme", ["exp_euler", "yosida_explicit", "mixed"],
                             ids=["implicit", "explicit", "mixed"])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("kick", [8, 9], ids=["node_9", "node_10"])
    def test_one_screen_checks_each_group_by_its_own_bound(self, scheme, K, kick, monkeypatch):
        # four groups under f = -8 u**3 at dt = 1/8, where dt * |f'(u)| = 3 u**2: group 1 alone
        # is kicked past the 1/2 bound at node kick + 1 (a K = 3 block's first left state
        # for node 9, its second for node 10) and warns there, while an infinite increment
        # in the same step blows group 2 up from clean left states; groups 0 and 3 stay clean
        self.blocks_of(monkeypatch, K, groups=4, members=3, n=1)
        dt, steps = 0.125, 24
        spec = EquationSpec(A=SpectralOperator.diagonal([2.0]),
                            F=Nonlinearity((0.0, 0.0, 0.0, -8.0)),
                            B=DiffusionCoefficient.constant(np.zeros((1, 3)), np.ones(3)),
                            G=JumpCoefficient.zero(1), u0=np.array([0.1]), T=steps * dt)
        bases = ([0.05, 0.0, 0.0], [0.05, 1.0, 0.0], [0.05, 0.0, 1e10], [0.02, 0.0, 0.0])
        specs = tuple(spec.with_data(B=DiffusionCoefficient.constant(np.array([b]), np.ones(3)),
                                     u0=np.array([u0]))
                      for b, u0 in zip(bases, (0.1, 0.12, 0.08, -0.1)))
        dW = np.zeros((3, steps, 3))
        dW[..., 0] = np.sqrt(dt) * np.random.default_rng(2).standard_normal((3, steps))
        dW[1, kick, 1], dW[1, kick + 1, 2] = 0.8, 1e300
        counts, configs = np.zeros((3, steps, 1)), scheme_configs(scheme, 4, dt)
        caught, separate = assert_groups_match_reference(spec, specs, dW, counts, configs)
        assert caught == separate[1] and not separate[0] + separate[2] + separate[3]
        assert len(caught) == 1 and f"at step {kick + 1}:" in caught[0][1]
        error = stepper_outcome(reference_step_ensemble, specs[2], dW, counts, configs[2])[0]
        assert error[0] == kick + 2   # the error the grouped call raised


@pytest.mark.parametrize("b_scale,g_scale", [((0.05, -0.02), (0.02, 0.03)),
                                             ((0.0, 0.0), (0.0, 0.0))],
                         ids=["multiplicative", "additive"])
def test_working_memory_of_a_thousand_member_ensemble(b_scale, g_scale):
    # beyond the returned states, stepping 1000 members of dimension 31 over
    # 128 steps holds at most 1.8 MiB (1.28 MiB measured multiplicative, 1.02
    # additive)
    spec, dW, counts = stepper_case(CUBIC, 31, 1000, 128, b_scale=b_scale, g_scale=g_scale)
    tracemalloc.start()
    try:
        states = step_one(spec, dW, counts, scheme_config("exp_euler"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - states.nbytes <= 1.8 * 2**20


class TestExpEuler:
    def test_pure_semigroup_flow(self):
        A = dirichlet_laplacian(9)
        u0 = A.eigenvectors[:, :3] @ np.array([1.0, 0.5, 0.25])
        spec = noise_free_spec(A, u0)
        traj = solve_exp_euler(spec, noise_for(spec, 2.0**-5), 2.0**-5)
        for k in (0, 4, 16):
            t = traj.grid.times[k]
            exact = A.synthesize(A.semigroup_factors(t) * A.coords(u0))
            assert np.allclose(traj.states[k], exact, atol=1e-12)

    def test_scalar_brownian_shift(self):
        # A = 0, F = 0, B = 1: u(t_n) = u0 + W(t_n)
        A = SpectralOperator.diagonal([0.0])
        spec = EquationSpec(A=A, F=Nonlinearity.zero(),
                            B=DiffusionCoefficient.constant(np.ones((1, 1)), np.array([1.0])),
                            G=JumpCoefficient.zero(1), u0=np.array([0.7]), T=1.0)
        noise = noise_for(spec, 2.0**-6, seed=11)
        traj = solve_exp_euler(spec, noise, 2.0**-6)
        w = np.concatenate(([0.0], np.cumsum(noise.wiener.increments[0, :, 0])))
        assert np.allclose(traj.states[:, 0], 0.7 + w, atol=1e-14)

    def test_strong_order_on_linear_equation(self):
        # oracle: the exact discrete convolution of the same fine path.  The
        # error against it is Gaussian with exactly computable scale, so the
        # decay order is asserted on the exact scale (noise-free) and the
        # realized solver errors are checked to match that scale.
        a, b, T = 1.0, 1.0, 1.0
        A = SpectralOperator.diagonal([a])
        spec = EquationSpec(A=A, F=Nonlinearity.zero(),
                            B=DiffusionCoefficient.constant(b * np.ones((1, 1)), np.array([1.0])),
                            G=JumpCoefficient.zero(1), u0=np.array([1.0]), T=T)
        fine_dt = 2.0**-12
        fine_grid = TimeGrid(T, round(T / fine_dt))
        tf = fine_grid.times
        kernel_fine = np.exp(-a * (T - tf[1:]))
        poisson = sample_poisson(spec.marks, T, seed=99)
        members = 64
        paths = [sample_wiener(spec.B.q, fine_grid, seed=s) for s in range(members)]
        refs = [np.exp(-a * T) + b * np.sum(kernel_fine * p.increments[0, :, 0]) for p in paths]
        dts = [2.0**-j for j in range(5, 9)]
        for scheme in ("exp_euler", "resolvent_implicit"):
            scales, rms = [], []
            for dt in dts:
                fac = round(dt / fine_dt)
                cells = np.arange(fine_grid.steps) // fac
                n_coarse = round(T / dt)
                if scheme == "exp_euler":
                    kernel_coarse = np.exp(-a * (T - (cells + 1) * dt))
                    det = 0.0
                else:
                    r = 1.0 / (1.0 + a * dt)
                    kernel_coarse = r ** (n_coarse - cells)
                    det = abs(r**n_coarse - np.exp(-a * T))
                var = b**2 * np.sum((kernel_fine - kernel_coarse) ** 2 * fine_dt)
                scales.append(np.sqrt(var + det**2))
                sq = 0.0
                for path, ref in zip(paths, refs):
                    traj, = solve(spec, NoiseBatch(coarsen_wiener(path, fac), poisson),
                                  (SchemeConfig(scheme, dt),))
                    sq += (traj.states[-1, 0] - ref) ** 2
                rms.append(np.sqrt(sq / members))
            slope = np.polyfit(np.log2(dts), np.log2(scales), 1)[0]
            assert slope >= 0.9, f"{scheme}: exact error scale decays with order {slope}"
            for got, want in zip(rms, scales):
                assert 0.6 * want <= got <= 1.6 * want, f"{scheme}: rms {got} vs scale {want}"


class TestResolventImplicit:
    def test_repeated_resolvent(self):
        A = dirichlet_laplacian(6)
        u0 = A.eigenvectors[:, 0].copy()
        spec = noise_free_spec(A, u0)
        dt = 2.0**-4
        traj = solve_resolvent_implicit(spec, noise_for(spec, dt), dt)
        expected = u0
        for k in range(1, traj.grid.steps + 1):
            expected = resolvent_apply(A, dt, expected)
            assert np.allclose(traj.states[k], expected, atol=1e-12)

    def test_reduces_to_explicit_euler_without_operator(self):
        A = SpectralOperator.diagonal([0.0, 0.0])
        spec = EquationSpec(A=A, F=Nonlinearity((0.0, -0.5, 0.0, 1.0)),
                            B=DiffusionCoefficient.constant(0.3 * np.eye(2), np.ones(2)),
                            G=JumpCoefficient.zero(2), u0=np.array([0.4, -0.2]), T=1.0)
        noise = noise_for(spec, 2.0**-5, seed=13)
        a = solve_exp_euler(spec, noise, 2.0**-5)
        b = solve_resolvent_implicit(spec, noise, 2.0**-5)
        assert np.array_equal(a.states, b.states)


class TestYosidaExplicit:
    def test_large_epsilon_removes_the_operator(self):
        spec = make_cubic_spec(n=9)
        dt = 2.0**-6
        noise = noise_for(spec, dt, seed=17)
        traj = solve_yosida_explicit(spec, noise, dt, epsilon=1e12)
        free = spec.with_data()  # same data, operator replaced by zero below
        A0 = SpectralOperator.diagonal(np.zeros(9), weight=spec.space.weight)
        spec0 = EquationSpec(A=A0, F=spec.F, B=spec.B, G=spec.G, u0=spec.u0, T=spec.T)
        ref = solve_exp_euler(spec0, noise, dt)
        assert np.abs(traj.states - ref.states).max() < 1e-9

    def test_diagonal_geometric_decay(self):
        lam = np.array([1.0, 4.0, 9.0])
        A = SpectralOperator.diagonal(lam)
        spec = noise_free_spec(A, np.ones(3), T=1.0)
        dt, eps = 2.0**-4, 0.5
        traj = solve_yosida_explicit(spec, noise_for(spec, dt), dt, eps)
        factors = 1.0 - dt * lam / (1.0 + eps * lam)
        for k in (1, 5, 16):
            assert np.allclose(traj.states[k], factors**k, atol=1e-13)

    def test_stability_precondition(self):
        A = dirichlet_laplacian(31)
        spec = noise_free_spec(A, np.zeros(31), T=1.0)
        with pytest.raises(ConfigurationError):
            solve_yosida_explicit(spec, noise_for(spec, 2.0**-3), 2.0**-3, epsilon=1e-6)

    @pytest.mark.parametrize("scheme,dt,epsilon", [
        ("exp_euler", math.inf, None), ("resolvent_implicit", math.nan, None),
        ("exp_euler", 0.0, None), ("yosida_explicit", math.inf, 0.1),
        ("yosida_explicit", 2.0**-6, math.inf), ("yosida_explicit", 2.0**-6, math.nan),
        ("yosida_explicit", 2.0**-6, -0.1)])
    def test_scheme_config_requires_finite_positive_parameters(self, scheme, dt, epsilon):
        with pytest.raises(ConfigurationError, match="finite"):
            SchemeConfig(scheme, dt, epsilon)

    def test_requires_epsilon(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig("yosida_explicit", 0.1)

    def test_epsilon_zero_steps_explicit_euler_with_the_operator(self):
        # A_0 = A, so each step is u - dt A u + inc with A's dense matrix
        dt = 2.0**-8
        spec, dW, counts = stepper_case((), 5, 3, 16, dt=dt, b_scale=(0.0, 0.0),
                                        g_scale=(0.0, 0.0))
        states = step_one(spec, dW, counts, SchemeConfig("yosida_explicit", dt, 0.0))
        A, B, G = spec.A.matrix, spec.B.base, spec.G.base
        u = np.tile(spec.u0, (3, 1))
        for n in range(16):
            inc = dW[:, n] @ B.T + counts[:, n] @ G.T - dt * (G @ spec.marks.weight_array)
            u = u - dt * u @ A.T + inc
            assert np.abs(states[:, n + 1] - u).max() <= 1e-13

    def test_epsilon_zero_refuses_dt_lam_max_of_two(self):
        A = SpectralOperator.diagonal([1.0, 4.0])
        with pytest.raises(ConfigurationError) as refused:
            A.explicit_rates(0.5, 0.0)
        assert str(refused.value) == "explicit Euler unstable: dt*lam_max = 2 >= 2 (dt=0.5)"
        assert np.array_equal(A.explicit_rates(np.nextafter(0.5, 0.0), 0.0),
                              A.eigenvalues)
        spec = noise_free_spec(A, np.ones(2), T=1.0)
        with pytest.raises(ConfigurationError, match=r"dt\*lam_max = 2 >= 2"):
            step_one(spec, np.zeros((1, 2, 1)), np.zeros((1, 2, 1)),
                     SchemeConfig("yosida_explicit", 0.5, 0.0))


class TestTrajectoryContracts:
    def test_pathwise_determinism(self):
        spec = make_cubic_spec(n=9)
        dt = 2.0**-6
        a = solve_exp_euler(spec, noise_for(spec, dt, seed=5), dt)
        b = solve_exp_euler(spec, noise_for(spec, dt, seed=5), dt)
        assert np.array_equal(a.states, b.states)
        assert a.integrability == b.integrability

    def test_norm_decay_without_data(self):
        A = dirichlet_laplacian(9)
        u0 = np.random.default_rng(2).standard_normal(9)
        spec = noise_free_spec(A, u0)
        for solver in (solve_exp_euler, solve_resolvent_implicit):
            traj = solver(spec, noise_for(spec, 2.0**-5), 2.0**-5)
            norms = np.sqrt(spec.space.sq_norms(traj.states))
            assert np.all(np.diff(norms) <= 1e-14)

    def test_integrability_recorded_finite(self):
        spec = make_cubic_spec(n=9)
        traj = solve_exp_euler(spec, noise_for(spec, 2.0**-6), 2.0**-6)
        assert np.isfinite(traj.integrability)
        assert traj.integrability > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_aborts_with_step_index(self):
        # anti-dissipative cubic from a large state explodes in a few steps
        A = SpectralOperator.diagonal([0.0, 0.0])
        spec = EquationSpec(A=A, F=Nonlinearity((0.0, 0.0, 0.0, -40.0)),
                            B=DiffusionCoefficient.zero(2), G=JumpCoefficient.zero(2),
                            u0=np.array([3.0, -3.0]), T=1.0)
        with pytest.warns(StiffnessWarning):
            with pytest.raises(BlowUpError) as err:
                solve_exp_euler(spec, noise_for(spec, 2.0**-3), 2.0**-3)
        assert err.value.step >= 1

    def test_refuses_steps_that_do_not_span_the_horizon(self):
        # 40 steps of dt = 0.5 span 20, not T = 1: stepped, this cubic blew up at step 6,
        # which the spec.T / steps formula put at t = 0.15 instead of 3.0
        spec = EquationSpec(A=dirichlet_laplacian(3), F=Nonlinearity((0.0, 0.0, 0.0, 50.0)),
                            B=DiffusionCoefficient.zero(3), G=JumpCoefficient.zero(3),
                            u0=np.full(3, 3.0), T=1.0)
        zeros = np.zeros((1, 40, 1))
        with pytest.raises(ConfigurationError,
                           match=r"^40 steps of dt=0\.5 span 20, not T=1\.0$"):
            step_ensemble(zeros, zeros, ((spec, SchemeConfig("exp_euler", 0.5)),))
        linear = spec.with_data(F=Nonlinearity.zero())   # two steps span T
        config = SchemeConfig("exp_euler", 0.5)
        assert step_ensemble(zeros[:, :2], zeros[:, :2], ((linear, config),)).shape == (1, 1, 3, 3)

    def test_stiffness_warning_on_marginal_step(self):
        A = SpectralOperator.diagonal([0.0])
        spec = EquationSpec(A=A, F=Nonlinearity.linear(12.0),
                            B=DiffusionCoefficient.zero(1), G=JumpCoefficient.zero(1),
                            u0=np.array([1.0]), T=1.0)
        with pytest.warns(StiffnessWarning):
            solve_exp_euler(spec, noise_for(spec, 0.125), 0.125)

    def test_integrability_closed_form_on_additive_noise(self):
        # F = 0 and state-free B, G: every cell adds dt * w * (|B|_Q^2 + |G|_m^2)
        spec = make_linear_spec(n=7, jump_amp=0.3)
        traj = solve_exp_euler(spec, noise_for(spec, 2.0**-6, seed=4), 2.0**-6)
        col_b = (spec.B.base**2).sum(axis=0) @ spec.B.q
        col_g = (spec.G.base**2).sum(axis=0) @ spec.marks.weight_array
        expected = spec.T * spec.space.weight * (col_b + col_g)
        assert traj.integrability == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_noise_validation(self):
        spec = make_cubic_spec(n=9)
        noise = noise_for(spec, 2.0**-5)
        wiener, poisson = noise
        with pytest.raises(ConfigurationError):
            solve_exp_euler(spec, noise, 2.0**-6)  # dt mismatch
        bad_q = sample_wiener(np.array([1.0, 1.0]), wiener.grid, 0)
        with pytest.raises(ConfigurationError):
            solve_exp_euler(spec, NoiseBatch(bad_q, poisson), 2.0**-5)
        short = sample_poisson(spec.marks, 2 * spec.T, 0)
        with pytest.raises(ConfigurationError):
            solve_exp_euler(spec, NoiseBatch(wiener, short), 2.0**-5)

    def test_solve_refuses_a_batch_of_several_paths(self):
        spec = make_cubic_spec(n=9)
        batch = sample_noise_batch(spec.B.q, spec.marks, TimeGrid(spec.T, 8), 0, 2)
        with pytest.raises(ConfigurationError, match="one noise path, not a batch of 2"):
            solve(spec, batch, (SchemeConfig("exp_euler", spec.T / 8),))
        zeros = np.zeros((8, 9, 2))
        with pytest.raises(ConfigurationError, match="one noise path, not a batch of 2"):
            solve_linear_data(spec.A, np.zeros((8, 9)), zeros, zeros, batch, spec.marks)
        # the (wiener, jumps) pair a batch unpacks to is not itself a batch of two
        with pytest.raises(TypeError, match="must be a NoiseBatch, got tuple"):
            solve(spec, tuple(batch.rows(0, 1)), (SchemeConfig("exp_euler", spec.T / 8),))

    def test_cross_scheme_gap_shrinks_linearly(self):
        # window chosen so dt*lam stays below one for the loaded modes; the
        # schemes' one-step maps then differ by O(dt^2) per step
        spec = make_linear_spec(n=7)
        fine_dt = 2.0**-11
        fine = sample_wiener(spec.B.q, TimeGrid(spec.T, round(spec.T / fine_dt)), seed=31)
        poisson = sample_poisson(spec.marks, spec.T, seed=77)
        gaps, dts = [], []
        for j in (7, 8, 9, 10):
            dt = 2.0**-j
            wiener = coarsen_wiener(fine, round(dt / fine_dt))
            a = solve_exp_euler(spec, NoiseBatch(wiener, poisson), dt)
            b = solve_resolvent_implicit(spec, NoiseBatch(wiener, poisson), dt)
            gaps.append(np.sqrt(spec.space.sq_norms(a.states - b.states)).max())
            dts.append(dt)
        slope = np.polyfit(np.log2(dts), np.log2(gaps), 1)[0]
        assert 0.9 <= slope <= 1.2


def linear_test_data(n=8, steps=16, d=2, atoms=2, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    g = amp * rng.standard_normal((steps, n))
    C = amp * rng.standard_normal((steps, n, d))
    D = amp * rng.standard_normal((steps, n, atoms))
    return g, C, D


def reference_linear_data(A, g, C, D, noise, marks, scheme):
    """The per-step loop solve_linear_data replaced: y_{n+1} = V f V^T w (y_n + inc_n)
    in eigen-coordinates, f = exp(-dt lam) or 1/(1 + dt lam)."""
    grid = noise.grid
    dt = grid.dt
    factors = A.semigroup_factors(dt) if scheme == "exp_euler" else A.resolvent_factors(dt)
    dW, counts = noise.wiener.increments[0], noise.cell_counts[0]
    inc = (-dt * g + (C @ dW[:, :, None])[..., 0] + (D @ counts[:, :, None])[..., 0]
           - dt * (D @ marks.weight_array))
    states = np.zeros((grid.steps + 1, A.dim))
    for n in range(grid.steps):
        states[n + 1] = A.synthesize(factors * A.coords(states[n] + inc[n]))
    return states


class TestRegularizedCouplingIdentity:
    def setup_method(self):
        self.A = dirichlet_laplacian(8)
        self.marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        self.q = np.array([1.0, 0.5])
        self.grid = TimeGrid(0.25, 16)

    def _noise(self, seed):
        return sample_noise_batch(self.q, self.marks, self.grid, seed, 1)

    def test_zero_data_gives_zero_residual(self):
        g = np.zeros((16, 8))
        C = np.zeros((16, 8, 2))
        D = np.zeros((16, 8, 2))
        res = regularized_coupling_identity(self.A, g, C, D, self._noise(0), self.marks, 0.3)
        assert res == 0.0

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit"])
    def test_random_instances_commute_exactly(self, scheme):
        for seed in range(20):
            g, C, D = linear_test_data(seed=seed)
            res = regularized_coupling_identity(self.A, g, C, D, self._noise(seed),
                                                self.marks, 0.3, scheme)
            assert res < 1e-9

    def test_mollified_solution_converges_linearly(self):
        # y_eps = J_eps y exactly, so the gap to y shrinks at the resolvent rate
        A = SpectralOperator.diagonal([0.25, 0.5, 1.0])
        marks = MarkSpace((-1.0, 1.0), (1.0, 1.0))
        grid = TimeGrid(0.5, 16)
        g, C, D = linear_test_data(n=3, steps=16, d=1, seed=3)
        wiener = sample_wiener(np.array([1.0]), grid, 4)
        poisson = sample_poisson(marks, 0.5, 5)
        y = solve_linear_data(A, g, C, D, NoiseBatch(wiener, poisson), marks)
        gaps, epsilons = [], []
        for j in range(3, 9):
            eps = 2.0**-j
            J = A.resolvent_matrix(eps)
            y_eps = y @ J
            gaps.append(np.sqrt(A.space.sq_norms(y_eps - y)).max())
            epsilons.append(eps)
        slope = np.polyfit(np.log2(epsilons), np.log2(gaps), 1)[0]
        assert 0.9 <= slope <= 1.1

    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit"])
    def test_solve_matches_the_per_step_loop(self, scheme):
        for seed in range(5):
            g, C, D = linear_test_data(seed=seed)
            noise = self._noise(seed)
            y = solve_linear_data(self.A, g, C, D, noise, self.marks, scheme)
            want = reference_linear_data(self.A, g, C, D, noise, self.marks, scheme)
            assert y.shape == want.shape == (17, 8)
            assert np.abs(y - want).max() <= 1e-13

    def test_rejects_callable_data(self):
        with pytest.raises(TypeError):
            regularized_coupling_identity(self.A, lambda t: 0, np.zeros((16, 8, 2)),
                                          np.zeros((16, 8, 2)), self._noise(0), self.marks, 0.3)


class TestItoEnergyIdentity:
    def setup_method(self):
        self.A = dirichlet_laplacian(5)
        self.marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        self.q = np.array([1.0, 0.5])

    def _noise(self, steps, seed=7, T=0.5):
        return sample_noise_batch(self.q, self.marks, TimeGrid(T, steps), seed, 1)

    def test_zero_data_zero_residual(self):
        g = np.zeros((64, 5))
        C = np.zeros((64, 5, 2))
        D = np.zeros((64, 5, 2))
        assert np.array_equal(ito_energy_residual(self.A, g, C, D, self._noise(64), self.marks),
                              [0.0])

    def test_deterministic_case_matches_quadrature_oracle(self):
        # with C = D = 0 the telescoped defect is exactly sum dt^2 |A y + g|^2
        steps = 64
        dt = 0.5 / steps
        rng = np.random.default_rng(9)
        g = rng.standard_normal((steps, 5))
        C = np.zeros((steps, 5, 2))
        D = np.zeros((steps, 5, 2))
        res, = ito_energy_residual(self.A, g, C, D, self._noise(steps), self.marks)
        y = np.zeros(5)
        oracle = 0.0
        w = self.A.space.weight
        for n in range(steps):
            drift = self.A.apply(y) + g[n]
            oracle += dt**2 * w * float(drift @ drift)
            y = y - dt * drift
        assert res == pytest.approx(oracle, rel=1e-10)

    def test_deterministic_residual_first_order(self):
        rng = np.random.default_rng(10)
        g_coarse = rng.standard_normal((16, 5))
        residuals, dts = [], []
        for j in (6, 7, 8, 9):
            steps = 2**j
            dt = 0.5 / steps
            g = np.repeat(g_coarse, steps // 16, axis=0)
            C = np.zeros((steps, 5, 2))
            D = np.zeros((steps, 5, 2))
            residuals.extend(ito_energy_residual(self.A, g, C, D,
                                                 self._noise(steps), self.marks))
            dts.append(dt)
        slope = np.polyfit(np.log2(dts), np.log2(residuals), 1)[0]
        assert slope >= 0.9

    def test_jump_term_reproduces_realized_sum(self):
        steps = 64
        rng = np.random.default_rng(11)
        g = rng.standard_normal((steps, 5))
        C = np.zeros((steps, 5, 2))
        D = 0.5 * rng.standard_normal((steps, 5, 2))
        noise = self._noise(steps)
        terms = ito_energy_terms(self.A, g, C, D, noise, self.marks)
        jump_sq = quadratic_mark_sum(D, noise[1], self.marks, noise[0].grid, self.A.space)
        assert np.array_equal(terms["jump_square_sum"], jump_sq)

    def _reference_terms(self, g, C, D, wiener, poisson):
        # per-path, per-step accumulation of every term of the identity
        A, w = self.A, self.A.space.weight
        grid = wiener.grid
        dt = grid.dt
        counts = np.zeros((grid.steps, 2))
        for s, j in zip(poisson.times, poisson.marks):
            counts[int(np.ceil(s / dt - 1e-9)) - 1, j] += 1.0
        y = np.zeros(A.dim)
        lhs_drift = mart_w = mart_j = bracket = 0.0
        for n in range(grid.steps):
            w_inc = C[n] @ wiener.increments[0, n]
            j_inc = D[n] @ counts[n] - dt * (D[n] @ self.marks.weight_array)
            lhs_drift += 2.0 * dt * w * (float(A.apply(y) @ y) + float(g[n] @ y))
            mart_w += 2.0 * w * float(y @ w_inc)
            mart_j += 2.0 * w * float(y @ j_inc)
            bracket += w * float(w_inc @ w_inc)
            y = y - dt * (A.apply(y) + g[n]) + w_inc + j_inc
        jump_sq = sum(w * float(D[int(np.ceil(s / dt - 1e-9)) - 1, :, j]
                                @ D[int(np.ceil(s / dt - 1e-9)) - 1, :, j])
                      for s, j in zip(poisson.times, poisson.marks))
        final = w * float(y @ y)
        return {"lhs": final + lhs_drift, "rhs": mart_w + mart_j + bracket + jump_sq,
                "martingale_wiener": mart_w, "martingale_jump": mart_j,
                "bracket_wiener": bracket, "jump_square_sum": jump_sq, "final_sq_norm": final}

    def test_batch_matches_per_path_reference(self):
        steps = 64
        rng = np.random.default_rng(12)
        g = rng.standard_normal((steps, 5))
        C = 0.4 * rng.standard_normal((steps, 5, 2))
        D = 0.4 * rng.standard_normal((steps, 5, 2))
        grid = TimeGrid(0.5, steps)
        wieners = [sample_wiener(self.q, grid, s) for s in (1, 2, 3)]
        poissons = [sample_poisson(self.marks, 0.5, s + POISSON_SEED_OFFSET) for s in (1, 2)]
        poissons.append(PoissonPath(np.zeros(0), np.zeros(0, dtype=np.int64), 0.5, 2, 0,
                                    np.array([0, 0])))
        assert min(p.count for p in poissons[:2]) > 0
        batch = NoiseBatch(WienerPath(grid, wieners[0].q,
                                      np.concatenate([w.increments for w in wieners]), 1),
                           PoissonPath.stack(poissons))
        terms = ito_energy_terms(self.A, g, C, D, batch, self.marks)
        for i, (wiener, poisson) in enumerate(zip(wieners, poissons)):
            expected = self._reference_terms(g, C, D, wiener, poisson)
            single = ito_energy_terms(self.A, g, C, D, NoiseBatch(wiener, poisson), self.marks)
            assert single.keys() == expected.keys() == terms.keys()
            for key, value in expected.items():
                assert terms[key][i] == pytest.approx(value, rel=1e-12, abs=0.0), key
                assert single[key][0] == pytest.approx(value, rel=1e-12, abs=0.0), key
        assert terms["jump_square_sum"][2] == 0.0
        residuals = ito_energy_residual(self.A, g, C, D, batch, self.marks)
        assert np.array_equal(residuals, np.abs(terms["lhs"] - terms["rhs"]))

    @pytest.mark.parametrize("values", [300, 240, 5], ids=["tail", "even", "one_step"])
    def test_block_edges_match_per_path_reference(self, values, monkeypatch):
        # 3 members of n = 5 step in blocks of K = values // 15: 20, 20, 20 and
        # 4 steps; 4 blocks of 16; one-step blocks, in slices of 1 and 2 members
        monkeypatch.setattr(solver, "_BLOCK_VALUES", values)
        self.test_batch_matches_per_path_reference()

    def test_memory_does_not_hold_trajectories(self):
        # 100 members of n = 5: from 128 to 1,024 steps the traced peak grows by
        # less than twice the drive (M, N, n) grows; holding the trajectories,
        # A y and the noise increments for whole-array sums grows by about 4.7
        members, rng = 100, np.random.default_rng(13)
        cases = {}
        for steps in (128, 1024):
            noise = sample_noise_batch(self.q, self.marks, TimeGrid(0.5, steps), 5, members)
            noise.cell_counts   # binned before tracing
            cases[steps] = (rng.standard_normal((steps, 5)),
                            0.3 * rng.standard_normal((steps, 5, 2)),
                            0.3 * rng.standard_normal((steps, 5, 2)), noise)

        def peak(steps):
            tracemalloc.start()
            try:
                ito_energy_terms(self.A, *cases[steps], self.marks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)  # leaves out one-time allocations of a first call
        drive_growth = members * (1024 - 128) * 5 * 8
        assert peak(1024) - peak(128) < 2 * drive_growth

    def test_batch_needs_one_jump_path_per_member(self):
        grid = TimeGrid(0.5, 16)
        w = sample_wiener(self.q, grid, 1)
        batch = WienerPath(grid, w.q, np.concatenate([w.increments, w.increments]), 1)
        with pytest.raises(ValueError, match="2 wiener paths but 1 jump paths"):
            NoiseBatch(batch, sample_poisson(self.marks, 0.5, 2))

    def test_explicit_stability_guard(self):
        A = dirichlet_laplacian(31)
        steps = 16
        g = np.zeros((steps, 31))
        C = np.zeros((steps, 31, 2))
        D = np.zeros((steps, 31, 2))
        grid = TimeGrid(1.0, steps)
        noise = NoiseBatch(sample_wiener(self.q, grid, 0), sample_poisson(self.marks, 1.0, 1))
        with pytest.raises(ConfigurationError):
            ito_energy_residual(A, g, C, D, noise, self.marks)


class TestStiffnessPolicy:
    """One StiffnessWarning when dt * max|f'(u)| over all members and components reaches 1."""

    def spec(self):
        # f = u^3 - 3u: from u0 = 1 the path climbs towards sqrt(3), where
        # dt * f'(u) = 0.1 * 6 stays below 1 (the exact maximum is 0.599)
        return EquationSpec(A=SpectralOperator.diagonal([0.0]),
                            F=Nonlinearity((0.0, -3.0, 0.0, 1.0)),
                            B=DiffusionCoefficient.constant(np.ones((1, 1)), np.array([1.0])),
                            G=JumpCoefficient.zero(1), u0=np.array([1.0]), T=1.0)

    def test_no_warning_inside_the_safety_region(self):
        from mildsde.analysis import _solve_ensemble
        spec = self.spec().with_data(B=DiffusionCoefficient.zero(1))
        grid = TimeGrid(1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StiffnessWarning)
            solve_exp_euler(spec, noise_for(spec, 0.1), 0.1)
            _solve_ensemble(spec, grid, 0.1, "exp_euler", 3, 4)

    def test_one_member_crossing_warns(self):
        # member 1 is kicked to u = 2.7 at its first step, where
        # dt * f'(u) = 1.89; member 0 alone never leaves the safe region
        dW = np.zeros((2, 10, 1))
        dW[1, 0, 0] = 1.5
        counts = np.zeros((2, 10, 1))
        config = SchemeConfig("exp_euler", 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StiffnessWarning)
            step_one(self.spec(), dW[:1], counts[:1], config)
        with pytest.warns(StiffnessWarning, match="at step 1"):
            states = step_one(self.spec(), dW, counts, config)
        assert states[1, 1, 0] == pytest.approx(2.7)

    @given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
           st.integers(2, 7), st.integers(0, 2), st.integers(0, 9), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_screened_warning_matches_the_reference(self, coeffs, log_steps, member, at, kick):
        # f of degree <= 5, dt = 2**-log_steps, one member kicked at one step
        dt = 2.0**-log_steps
        spec = EquationSpec(A=SpectralOperator.diagonal([0.0, 1.0]), F=Nonlinearity(coeffs),
                            B=DiffusionCoefficient.constant(np.eye(2), np.ones(2)),
                            G=JumpCoefficient.zero(2), u0=np.array([0.5, -0.25]), T=10 * dt)
        dW = np.zeros((3, 10, 2))
        dW[member, at] = kick
        assert_same_outcome(spec, dW, np.zeros((3, 10, 1)), SchemeConfig("exp_euler", dt))

    @pytest.mark.parametrize("f_coeffs", [(0.0, 8.0), (0.0, 0.0, 4.0)], ids=["linear", "quadratic"])
    def test_warns_exactly_at_one(self, f_coeffs):
        # dt * max|f'(u0)| = 0.125 * 8 * 1 is exactly 1; a slope one ulp
        # smaller gives nextafter(1, 0) and no warning
        spec = EquationSpec(A=SpectralOperator.diagonal([0.0]), F=Nonlinearity(f_coeffs),
                            B=DiffusionCoefficient.zero(1), G=JumpCoefficient.zero(1),
                            u0=np.array([1.0]), T=1.0)
        config = SchemeConfig("exp_euler", 0.125)
        dW, counts = np.zeros((1, 8, 1)), np.zeros((1, 8, 1))
        _, caught = assert_same_outcome(spec, dW, counts, config)
        assert caught == [(StiffnessWarning, "explicit drift step outside safety region at "
                                             "step 0: dt*max|f'(u)| = 1 >= 1")]
        below = Nonlinearity(tuple(np.nextafter(c, 0.0) for c in f_coeffs))
        assert 0.125 * below.derivative_coefficients()[-1] == np.nextafter(1.0, 0.0)
        _, caught = assert_same_outcome(spec.with_data(F=below), dW, counts, config)
        assert caught == []

    def test_overflowing_bound_is_not_an_error(self):
        # r**4 overflows float64 for r = 1e120, silently under the step loop's
        # errstate: the bound reads as inf, and so does the exact dt * max|f'(u0)|
        spec = EquationSpec(A=SpectralOperator.diagonal([0.0]),
                            F=Nonlinearity((0.0, -1.0, 0.0, 0.0, 0.0, 1.0)),
                            B=DiffusionCoefficient.zero(1), G=JumpCoefficient.zero(1),
                            u0=np.array([1e120]), T=1.0)
        outcome, caught = assert_same_outcome(spec, np.zeros((1, 4, 1)), np.zeros((1, 4, 1)),
                                              SchemeConfig("exp_euler", 0.25))
        assert outcome[0] == 1
        assert caught == [(StiffnessWarning, "explicit drift step outside safety region at "
                                             "step 0: dt*max|f'(u)| = inf >= 1")]


class TestSchemeDispatch:
    def test_names(self):
        spec = make_cubic_spec(n=7)
        dt = 2.0**-5
        noise = noise_for(spec, dt, seed=1)
        a, = solve(spec, noise, (SchemeConfig("exp_euler", dt),))
        b = solve_exp_euler(spec, noise, dt)
        assert np.array_equal(a.states, b.states)
        with pytest.raises(ConfigurationError):
            solve(spec, noise, (SchemeConfig("unknown", dt),))
        with pytest.raises(ConfigurationError):
            solve(spec, noise, (SchemeConfig("yosida_explicit", dt),))  # needs an epsilon


STEP_MAP_OPERATORS = {"laplacian": dirichlet_laplacian(31),
                      "diagonal": SpectralOperator.diagonal([0.0, 1.5, 40.0], weight=0.25)}


class TestStepMaps:
    """Each operator map keeps the bits of reference_step_map, written from the eigenpairs."""

    @pytest.mark.parametrize("operator", STEP_MAP_OPERATORS)
    # dt is no power of two, so that a product taken in another order shows in the bits
    @pytest.mark.parametrize("config", [SchemeConfig("exp_euler", 3e-4),
                                        SchemeConfig("resolvent_implicit", 3e-4),
                                        SchemeConfig("yosida_explicit", 3e-4, 0.0),
                                        SchemeConfig("yosida_explicit", 3e-4, 1e-3)],
                             ids=["exp_euler", "resolvent_implicit", "explicit_eps0", "yosida"])
    def test_maps_keep_the_bits_of_the_eigenpair_expressions(self, operator, config):
        A, dt = STEP_MAP_OPERATORS[operator], config.dt
        got = {"exp_euler": lambda: A.semigroup_matrix(dt),
               "resolvent_implicit": lambda: A.resolvent_matrix(dt),
               "yosida_explicit": lambda: A.explicit_matrix(dt, config.epsilon)}[config.scheme]()
        want = reference_step_map(A, config)
        assert got.tobytes() == want.tobytes()
        # one noise-free step of step_ensemble from u0 is the map applied to u0
        u0 = np.linspace(-1.0, 1.0, A.dim)
        states = step_ensemble(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                               ((noise_free_spec(A, u0, T=dt), config),))
        assert states[0, 0, 1].tobytes() == (want @ u0[:, None])[:, 0].tobytes()


class TestLinearDataValidation:
    def test_rejects_unknown_scheme_and_bad_shapes(self):
        A = dirichlet_laplacian(4)
        marks = MarkSpace((-1.0, 1.0), (1.0, 1.0))
        grid = TimeGrid(0.5, 8)
        noise = NoiseBatch(sample_wiener(np.array([1.0]), grid, 0), sample_poisson(marks, 0.5, 1))
        g = np.zeros((8, 4))
        C = np.zeros((8, 4, 1))
        D = np.zeros((8, 4, 2))
        with pytest.raises(ConfigurationError):
            solve_linear_data(A, g, C, D, noise, marks, scheme="yosida_explicit")
        with pytest.raises(ValueError):
            solve_linear_data(A, np.zeros((7, 4)), C, D, noise, marks)
        with pytest.raises(ValueError, match="C has 3 columns, expected 1"):
            solve_linear_data(A, g, np.zeros((8, 4, 3)), D, noise, marks)
        with pytest.raises(ValueError, match="C must have shape .* n=4"):
            solve_linear_data(A, g, np.zeros((8, 5, 1)), D, noise, marks)
        with pytest.raises(ValueError, match="D has 1 columns, expected 2"):
            solve_linear_data(A, g, C, np.zeros((8, 4, 1)), noise, marks)
