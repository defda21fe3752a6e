"""Time-stepping schemes for the mild (convolution) form of the equation.

Three one-step maps share one stepper, ``step_ensemble``, which advances
an ensemble of noise paths in (spec, scheme config) groups of one step size
at once, each group in its own scheme, so one call can step the exact and
the regularized schemes on one path; ``solve`` steps one path, a
``NoiseBatch`` of one, under configs:

* ``exp_euler``: exponential Euler, u_{n+1} = exp(-dt A)[u_n + increments],
  the direct discretization of the variation-of-constants form;
* ``resolvent_implicit``: backward-Euler resolvent step,
  u_{n+1} = (I + dt A)^{-1}[u_n + increments], unconditionally stable;
* ``yosida_explicit``: explicit Euler with A replaced by its bounded
  regularization A_eps, the scheme behind semigroup-approximation studies;
  at eps = 0 it is plain explicit Euler with A itself.

The linear-data runs (``solve_linear_data``, ``regularized_coupling_identity``,
``ito_energy_terms``) step through it too, as additive runs with B = I, F = 0
and u0 = 0 fed the per-cell drive of their data in place of Wiener increments.

Jumps are binned into their grid cell and evaluated at the left state (the
discrete stand-in for evaluating the integrand at u(s-)), and the jump
compensator is subtracted cellwise in closed form, so the discrete noise
increment is exactly centered.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError, StiffnessWarning
from .model import DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace, Nonlinearity
from .noise import _REL_TOL, NoiseBatch, TimeGrid, _check_step_process, quadratic_mark_sum
from .space import SpectralOperator

__all__ = [
    "SCHEMES",
    "SchemeConfig",
    "Trajectory",
    "solve_exp_euler",
    "solve_resolvent_implicit",
    "solve_yosida_explicit",
    "solve",
    "step_ensemble",
    "solve_linear_data",
    "regularized_coupling_identity",
    "ito_energy_residual",
    "ito_energy_terms",
]

SCHEMES = ("exp_euler", "resolvent_implicit", "yosida_explicit")

# values per (K, n, M) block array in step_ensemble and per time chunk of the linear-data drive
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme identifier plus its step size; epsilon only for yosida_explicit, whose
    epsilon = 0 is plain explicit Euler with A itself."""

    scheme: str
    dt: float
    epsilon: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be finite and > 0, got {self.dt}")
        if self.scheme == "yosida_explicit" and not (
                self.epsilon is not None and 0.0 <= self.epsilon < math.inf):
            raise ConfigurationError(
                f"yosida_explicit requires a finite epsilon >= 0, got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on a grid and their pathwise integrability.

    ``integrability`` is the a posteriori pathwise integral of
    |F(u)| + |B(t, u)|_Q^2 + |G(t, u, .)|_m^2 over [0, T]; uniqueness
    experiments require it to be finite before a run may enter them.
    """

    grid: TimeGrid
    states: np.ndarray
    integrability: float

    def __post_init__(self):
        if self.states.shape[0] != self.grid.steps + 1:
            raise ValueError("states must hold one row per grid node")


def _one_path(noise: NoiseBatch) -> TimeGrid:
    """The grid of ``noise``, a NoiseBatch of one (TypeError, ConfigurationError otherwise)."""
    if not isinstance(noise, NoiseBatch):
        raise TypeError(f"noise must be a NoiseBatch, got {type(noise).__name__}")
    if len(noise) != 1:
        raise ConfigurationError(f"a solve takes one noise path, not a batch of {len(noise)}")
    return noise.grid


def _validate_noise(spec: EquationSpec, noise: NoiseBatch, configs: tuple) -> TimeGrid:
    grid = _one_path(noise)
    wiener, poisson = noise
    for dt in {config.dt for config in configs}:
        if abs(grid.dt - dt) > _REL_TOL * max(dt, 1.0):
            raise ConfigurationError(f"wiener grid dt={grid.dt} does not match requested dt={dt}")
    if abs(grid.horizon - spec.T) > _REL_TOL * max(spec.T, 1.0):
        raise ConfigurationError(f"wiener horizon {grid.horizon} does not match T={spec.T}")
    if wiener.q.shape != spec.B.q.shape or not np.allclose(wiener.q, spec.B.q, rtol=0, atol=1e-15):
        raise ConfigurationError("wiener path covariance differs from the equation's Q")
    if abs(poisson.horizon - spec.T) > _REL_TOL * max(spec.T, 1.0):
        raise ConfigurationError(f"poisson horizon {poisson.horizon} does not match T={spec.T}")
    if poisson.atom_count != spec.marks.atom_count:
        raise ConfigurationError("poisson path was sampled from a different mark space")
    return grid


def _explicit_rates(A: SpectralOperator, dt: float, epsilon: float) -> np.ndarray:
    """The eigenvalues of A_eps (of A itself at epsilon = 0) if an explicit Euler
    step of size dt is stable for them (dt * lam_max < 2), else ConfigurationError."""
    rates = A.yosida_factors(epsilon)
    peak = dt * float(rates.max())
    if peak >= 2.0:
        bound, given = ("dt*lam_max", f"dt={dt}") if epsilon == 0 else (
            "dt*lam_max/(1+eps*lam_max)", f"dt={dt}, eps={epsilon}")
        raise ConfigurationError(f"explicit Euler unstable: {bound} = {peak:.3g} >= 2 ({given})")
    return rates


def _propagator(A: SpectralOperator, config: SchemeConfig) -> np.ndarray:
    """Dense matrix of the scheme's linear one-step map in state coordinates:
    exp(-dt A), (I + dt A)^{-1} or I - dt A_eps."""
    V, w, dt = A.eigenvectors, A.space.weight, config.dt
    if config.scheme == "yosida_explicit":
        return np.eye(A.dim) - dt * (V * _explicit_rates(A, dt, config.epsilon)) @ (w * V.T)
    factors = A.semigroup_factors(dt) if config.scheme == "exp_euler" else A.resolvent_factors(dt)
    return (V * factors) @ (w * V.T)


def _require_shared_frame(frame: EquationSpec, spec: EquationSpec):
    if not (np.array_equal(frame.A.eigenvalues, spec.A.eigenvalues)
            and np.array_equal(frame.A.eigenvectors, spec.A.eigenvectors)):
        raise ConfigurationError("coupled solutions require a shared operator")
    if frame.F.coefficients != spec.F.coefficients or frame.F.shift != spec.F.shift:
        raise ConfigurationError("coupled solutions require a shared drift")
    if frame.T != spec.T:
        raise ConfigurationError("coupled solutions require a shared horizon")
    if not np.array_equal(frame.B.q, spec.B.q):
        raise ConfigurationError("coupled solutions require shared covariance weights")
    if frame.marks.atoms != spec.marks.atoms or frame.marks.weights != spec.marks.weights:
        raise ConfigurationError("coupled solutions require a shared mark space")


def step_ensemble(dW: np.ndarray, counts: np.ndarray, groups: tuple, reduce=None):
    """Step M members of the mild form in G (EquationSpec, SchemeConfig) groups at
    once, whose specs share the first one's operator, drift, horizon, covariance
    weights and mark space and whose configs share one dt (else
    ConfigurationError; so does a call of no group).  Returns states
    (G, M, N+1, n), unless ``reduce``.

    ``dW`` holds the Wiener increments (M, N, d) and ``counts`` the per-cell
    jump counts (M, N, J) of each member, float64 or exact whole numbers in
    float32 (``NoiseBatch.cell_counts``), which the projections read as the
    same float64 values.  The noise increment of a step is
    B(u) dW + G(u) counts - dt G(u) m, with B and G evaluated at the left
    state, so the jump part is exactly centered.  Each group carries its own
    step form: exp_euler and resolvent_implicit step V = P_g(U - dt F(U) + inc),
    yosida_explicit V = P_g U - dt F(U) + inc.  Each run of consecutive groups
    of one form steps a block on its own, with its stacked (g, n, n) product
    and F and the increment evaluated on its groups (elementwise, so with the
    bits of an evaluation on all groups); a call of one form is one run.  Each
    group keeps the bits of a call with it alone: a stacked (g, n, n) product
    has the bits of the 2-D one, and each spec projects the noise of all
    members with its own 2-D products.

    Members step in slices of contiguous (G, n, w) arrays, w the largest power
    of two at most _BLOCK_VALUES // (G n); a one-member tail, which would take
    a matrix-vector product, joins the slice before.  Slice edges so fall on
    the column panels of the BLAS kernels, keeping the bits of an unsliced
    product on the tested sizes.  Steps run in blocks of K, about 2**15 values
    per (K, G, n, M) array.  A block forms the increment's state-free factors
    base = B.base dW + G.base counts - dt G.base m and the per-member scalar
    scale = dW b_scale + counts g_scale - dt (g_scale m), each from its two
    projected terms folded in place in the one that has every group, into
    buffers that every block reuses; a step adds u scale to base (scale is 0
    and not formed when B and G are additive).
    The projections span all M members, not one slice: a tail slice of
    unaligned width need not keep the bits of the same columns of the full
    product (measured with numpy 2.4's OpenBLAS 0.3.31 on an x86-64 Xeon:
    (31, d) @ (d, 44) at members 256-299 of 300 differ for d = 2, 3, 5;
    aligned widths from 2 to 512 agree), so per-slice projections would tie a
    member's bits to the slicing.  Each slice steps in place in one
    (K, G, n, w) buffer: u0 goes into its last row, and step k of a block
    writes row k from row k - 1, row 0 from row K - 1, so a one-step block
    overwrites its own left state.  Each per-step array goes into a (G, n, w)
    one allocated once per call and shared by the slices and runs, which step
    one after another.  Once a block's slices are stepped and checked,
    ``reduce(node, cols, states)`` takes each slice's states (K, G, n, w) of
    nodes node to node + K - 1, members ``cols`` in order (views of reused
    buffers), all groups of every run; its first call takes the initial
    states.

    Checks run once per block, on the (K, G) array of r = max|u| =
    max(max u, -min u) of each new state over all slices.  A non-finite r
    (it propagates nan and inf) is a
    blow-up; the call raises the BlowUpError, with the text of its own call,
    of the group that blew up first, the lowest on a tie.  Stiffness policy,
    per group: one StiffnessWarning at the first step where dt * max|f'(u)|,
    over every member and component, reaches 1; a constant f' below 1/dt is
    never checked.  As |f'(u)| <= sum_p |a_p| r**p, a block where dt times
    that bound stays below 1/2 on the group's left states before its blow-up
    is clean (the factor 2 absorbs rounding; an overflow reads as inf); on
    any other, dt * max|f'(u)| is evaluated exactly on all those states.  The
    bound is evaluated once per block, on r[0] and on (K, G), for all groups.
    The first left state, which the steps overwrite, is evaluated before the
    block steps wherever its own bound reaches 1/2 (below that it is below 1).
    yosida_explicit raises ConfigurationError unless
    dt * lam_max / (1 + eps * lam_max) < 2.
    """
    specs, configs = tuple(s for s, _ in groups), tuple(c for _, c in groups)
    if len({c.dt for c in configs}) != 1:
        raise ConfigurationError(f"one step_ensemble call takes one or more groups of one dt, "
                                 f"got {configs}")
    spec = specs[0]
    for other in specs[1:]:
        _require_shared_frame(spec, other)
    members, steps = dW.shape[:2]
    n_groups, n = len(groups), spec.A.dim
    dt, dt0 = configs[0].dt, np.array(configs[0].dt)   # dt0: a cheaper ufunc operand

    def shared(mats):   # a coefficient that every spec shares is projected once
        return mats[:1] if all(np.array_equal(m, mats[0]) for m in mats) else mats

    def project(mats, noise, out):   # mats[s] @ noise (K, d, M) into out (K, S, rows, M)
        for i, m in enumerate(mats):
            np.matmul(m, noise, out=out[:, i])
        return out

    def part(x, run):   # the run's groups of a (K, S, rows, M) factor; a shared one whole
        return x[:, run] if x.shape[1] > 1 else x

    F = spec.F
    fprime = Nonlinearity(F.derivative_coefficients())
    f_bound = Nonlinearity(tuple(abs(c) for c in fprime.coefficients))   # of |f'| on |u| <= r
    # until the group's warning; a constant f' only if it warns at step 0
    checking = np.full(n_groups, len(fprime.coefficients) > 1 or dt * f_bound(0.0) >= 1.0)
    additive = all(s.B.additive and s.G.additive for s in specs)
    b_base, g_base = shared([s.B.base for s in specs]), shared([s.G.base for s in specs])
    b_scale = shared([s.B.state_scale[None] for s in specs])
    g_scale = shared([s.G.state_scale[None] for s in specs])
    mark_w = spec.marks.weight_array
    g_comp = np.stack([dt * (base @ mark_w)[:, None] for base in g_base])
    s_comp = np.stack([np.full((1, 1), dt * float(scale[0] @ mark_w)) for scale in g_scale])
    props = np.stack([_propagator(spec.A, config) for config in configs])
    forms = [c.scheme == "yosida_explicit" for c in configs]   # explicit or not
    edges = [0] + [g for g in range(1, n_groups) if forms[g] != forms[g - 1]] + [n_groups]
    # each run of consecutive groups of one step form: its groups, propagators, explicit or not
    runs = [(slice(a, b), props[a:b], forms[a]) for a, b in zip(edges, edges[1:])]
    block = max(1, _BLOCK_VALUES // (n_groups * members * n))
    width = 1 << max(1, _BLOCK_VALUES // (n_groups * n)).bit_length() - 1
    slices = [slice(lo, lo + width if members - lo > width + 1 else members)
              for lo in range(0, max(1, members - 1), width)]
    # each slice's states, stepped in place in one (K, G, n, w) buffer from u0 in its last row
    u0 = np.stack([s.u0[:, None] for s in specs])
    bufs = [np.empty((block, n_groups, n, c.stop - c.start)) for c in slices]
    for buf in bufs:
        buf[-1] = u0
    size = max(buf[0].size for buf in bufs)
    scratch = np.empty(size)   # per run: U - dt F(U) + inc (implicit) or P U (explicit)
    drift = np.empty(size) if F.coefficients and any(forms) else None   # dt F(U), explicit
    increment = None if additive else np.empty(size)   # base + U scale, multiplicative
    # the dW and the counts term of each increment factor, base and (multiplicative noise)
    # scale, and its compensator; the terms go into (block, S, rows, M) buffers for every block
    terms = [(b_base, g_base, g_comp)] + ([] if additive else [(b_scale, g_scale, s_comp)])
    projections = [(b, g, comp, *(np.empty((block, len(m), len(m[0]), members)) for m in (b, g)))
                   for b, g, comp in terms]
    r = np.empty((block + 1, n_groups))    # r[k, g]: max|u| of group g before step first + k
    r[0] = np.abs(u0).max(axis=(-2, -1))
    states = np.empty((n_groups, members, steps + 1, n)) if reduce is None else None

    def step_run(prop, explicit, run_states, factors):
        # steps the states (block, g, n, w) of one run in place through the steps of factors.
        # A function of its own, as CPython 3.11's tracemalloc finds each traced allocation's
        # line by scanning the line table of its code: traced, this loop ran about 6 times
        # slower in step_ensemble's long body (the memory tests trace it)
        shape = run_states.shape[1:]
        Si = scratch[:math.prod(shape)].reshape(shape)
        fu = None if drift is None else drift[:Si.size].reshape(shape)
        inc = None if additive else increment[:Si.size].reshape(shape)
        Ui = run_states[-1]
        for V, step_factors in zip(run_states, zip(*factors)):
            if additive:
                inc, = step_factors
            else:   # base + U scale
                base, scale = step_factors
                np.multiply(Ui, scale, out=inc)
                inc += base
            if explicit:
                np.matmul(prop, Ui, out=Si)
                if F.coefficients:
                    F(Ui, out=fu)
                    np.multiply(fu, dt0, fu)
                    Si -= fu
                np.add(Si, inc, out=V)
            else:
                if F.coefficients:
                    F(Ui, out=Si)
                    np.multiply(Si, dt0, Si)
                    np.subtract(Ui, Si, out=Si)
                    Si += inc
                else:
                    np.add(Ui, inc, out=Si)
                np.matmul(prop, Si, out=V)
            Ui = V

    def fold(a, b, comp):   # a + b - comp, in place in the one of a, b that has every group
        full, other = (a, b) if a.shape[1] >= b.shape[1] else (b, a)
        full += other
        full -= comp
        return full

    def fill(node, cols, block_states):   # the default reducer
        states[:, cols, node:node + len(block_states)] = block_states.transpose(1, 3, 0, 2)
    reduce = reduce or fill
    for cols, buf in zip(slices, bufs):
        reduce(0, cols, buf[-1:])
    # an overflowing state is reported as BlowUpError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, block):
            dW_k, counts_k = (x[:, first:first + block].transpose(1, 2, 0) for x in (dW, counts))
            K = len(dW_k)
            factors = [fold(project(b, dW_k, b_out[:K]), project(g, counts_k, g_out[:K]), comp)
                       for b, g, comp, b_out, g_out in projections]
            # dt max|f'| on the block's first left state, which its steps overwrite, for
            # each checking group whose bound there reaches 1/2
            first_exact = {g: dt * np.max([np.abs(fprime(buf[-1, g])).max() for buf in bufs])
                           for g in np.flatnonzero(checking & ~(dt * f_bound(r[0]) < 0.5))}
            for cols, buf in zip(slices, bufs):
                for run, prop, explicit in runs:
                    step_run(prop, explicit, buf[:, run],
                             [part(x, run)[..., cols] for x in factors])
            news = [buf[:K] for buf in bufs]
            r[1:K + 1] = np.max([np.maximum(new.max(axis=(2, 3)), -new.min(axis=(2, 3)))
                                 for new in news], axis=0)
            finite = np.isfinite(r[1:K + 1])
            bound = dt * f_bound(r[:K])   # (K, G), inf where the bound overflows
            for g in np.flatnonzero(checking & ~(finite & (bound < 0.5)).all(axis=0)):
                # the left states group g checks: those of the steps before its blow-up
                m = K if finite[:, g].all() else int(finite[:, g].argmin()) + 1
                if bound[:m, g].max() < 0.5:
                    continue
                # the first reads 0 if not evaluated before the steps: it is below 1 then
                rest = [np.abs(fprime(new[:m - 1, g])).max(axis=(1, 2)) for new in news]
                exact = np.concatenate(([first_exact.get(g, 0.0)], dt * np.max(rest, axis=0)))
                k = int(np.argmax(exact >= 1.0))
                if exact[k] >= 1.0:
                    warnings.warn(
                        f"explicit drift step outside safety region at step {first + k}: "
                        f"dt*max|f'(u)| = {exact[k]:.3g} >= 1",
                        StiffnessWarning, stacklevel=2)
                    checking[g] = False
            if not finite.all():   # the earliest blow-up, the lowest group on ties
                k, g = divmod(int(finite.argmin()), n_groups)
                step = first + k + 1
                t = step * (spec.T / steps)
                raise BlowUpError(f"{configs[g].scheme} produced a non-finite state at step "
                                  f"{step} (t={t:.6g})", step=step, time=t)
            for cols, new in zip(slices, news):
                reduce(first + 1, cols, new)
            r[0] = r[K]
    return states


def solve(spec: EquationSpec, noise: NoiseBatch, configs: tuple) -> tuple:
    """One noise path (a NoiseBatch of one) stepped under each config (of one dt,
    in any schemes) by one step_ensemble call; a Trajectory per config, its
    integrability that of ``analysis._PathSums`` fed the states as one block."""
    from .analysis import _PathSums   # analysis imports this module
    grid = _validate_noise(spec, noise, configs)
    states = step_ensemble(noise.wiener.increments, noise.cell_counts,
                           tuple((spec, config) for config in configs))[:, 0]
    states.setflags(write=False)
    sums = _PathSums(spec, noise, len(configs))
    sums(0, slice(0, 1), states.transpose(1, 0, 2)[..., None])
    return tuple(Trajectory(grid, s, float(i)) for s, i in zip(states, sums.integrability))


def solve_exp_euler(spec: EquationSpec, noise, dt: float) -> Trajectory:
    """Exponential Euler: u_{n+1} = exp(-dt A)[u_n - dt F(u_n) + noise increment].

    Exact for the pure semigroup flow (F = B = G = 0) and the order-one
    discretization of the convolution form otherwise.
    """
    return solve(spec, noise, (SchemeConfig("exp_euler", dt),))[0]


def solve_resolvent_implicit(spec: EquationSpec, noise, dt: float) -> Trajectory:
    """Backward-Euler resolvent step; the linear part is unconditionally stable."""
    return solve(spec, noise, (SchemeConfig("resolvent_implicit", dt),))[0]


def solve_yosida_explicit(spec: EquationSpec, noise, dt: float, epsilon: float) -> Trajectory:
    """Explicit Euler with the bounded regularization A_eps in place of A.

    Requires dt * lam_max / (1 + eps * lam_max) < 2, checked before stepping.
    """
    return solve(spec, noise, (SchemeConfig("yosida_explicit", dt, epsilon),))[0]


# ---------------------------------------------------------------------------
# Linear-data equations: dy + Ay dt + g dt = C dW + D dmu_bar, y(0) = 0.
# Coefficients are per-cell arrays with no state dependence, so the equation is
# the mild form with F = 0, u0 = 0 and B = I fed the per-cell drive
# xi_n = C_n dW_n + D_n (dN_n - dt m) - dt g_n in place of Wiener increments:
# step_ensemble steps it as any additive noise, and I xi is exact.
# ---------------------------------------------------------------------------


def _linear_terms(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace):
    """(g, C, D, dt D m, drive xi = (C dW + (D dN - dt D m)) - dt g (M, N, n), the jump
    part formed in time chunks) on every member of ``noise``; the data must be per-cell arrays."""
    for name, val in (("g", g), ("C", C), ("D", D)):
        if callable(val):
            raise TypeError(f"{name} must be a per-cell array; state-dependent "
                            "coefficients are not allowed for linear-data runs")
    grid = noise.grid
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.steps, A.dim):
        raise ValueError(f"g must have shape ({grid.steps}, {A.dim}), got {g.shape}")
    C = _check_step_process(C, grid, "C", noise.wiener.q.shape[0], A.dim)
    D = _check_step_process(D, grid, "D", marks.atom_count, A.dim)
    drive = np.einsum("nij,mnj->mni", C, noise.wiener.increments)
    comp = grid.dt * (D @ marks.weight_array)
    chunk = max(1, _BLOCK_VALUES // (len(noise) * A.dim))
    for lo in range(0, grid.steps, chunk):
        cells = slice(lo, lo + chunk)
        jump = np.einsum("nij,mnj->mni", D[cells], noise.cell_counts[:, cells])
        drive[:, cells] += jump - comp[cells]
    drive -= grid.dt * g
    return g, C, D, comp, drive


def _linear_steps(A: SpectralOperator, drive, mats: tuple, config: SchemeConfig, reduce=None):
    """step_ensemble(..., reduce) from y_0 = 0 fed ``drive`` (M, N, n) as the Wiener
    increments of B = K, q = 1, one group per K in ``mats``: states (G, M, N+1, n)."""
    members, steps, n = drive.shape
    groups = tuple((EquationSpec(A=A, F=Nonlinearity.zero(),
                                 B=DiffusionCoefficient.constant(K, np.ones(n)),
                                 G=JumpCoefficient.zero(n), u0=np.zeros(n), T=steps * config.dt),
                    config) for K in mats)
    return step_ensemble(drive, np.zeros((members, steps, 1)), groups, reduce)


def solve_linear_data(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace,
                      scheme: str = "exp_euler") -> np.ndarray:
    """Solve the linear-data equation on one noise path (a NoiseBatch of one) from
    y(0) = 0; returns states (steps+1, n)."""
    grid = _one_path(noise)
    *_, drive = _linear_terms(A, g, C, D, noise, marks)
    return _linear_steps(A, drive, (np.eye(A.dim),), SchemeConfig(scheme, grid.dt))[0, 0]


def regularized_coupling_identity(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace,
                                  epsilon: float, scheme: str = "exp_euler") -> float:
    """Residual of the exact discrete regularization identity.

    Steps y of the data (g, C, D) and y_eps of the mollified data (J g, J C, J D),
    J = (I + eps A)^{-1}, on one path (a NoiseBatch of one) and scheme, as the
    groups B = I and B = J of one call on one drive: J xi is the mollified drive.
    Returns sup_n |y_eps(t_n) - J y(t_n)|, exactly 0 at the discrete level as J
    commutes with the one-step map, so the residual is floating-point noise.
    """
    grid = _one_path(noise)
    *_, drive = _linear_terms(A, g, C, D, noise, marks)
    J = A.resolvent_matrix(epsilon)
    y, y_eps = _linear_steps(A, drive, (np.eye(A.dim), J), SchemeConfig(scheme, grid.dt))[:, 0]
    gap = y_eps - y @ J   # J is symmetric, so right-multiplication applies it rowwise
    return float(np.sqrt(A.space.sq_norms(gap)).max())


def ito_energy_terms(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace) -> dict:
    """Both sides of the discrete energy identity for the square of the norm.

    The path is stepped with plain explicit Euler (A is bounded here), which
    is yosida_explicit at eps = 0, y_{n+1} = (I - dt A) y_n + xi_n; for it the
    identity |y_N|^2 = 2 sum <y_n, b_n> + sum |b_n|^2 telescopes exactly; the
    reported sides are

      lhs = |y(T)|^2 + 2 sum <A y_n, y_n> dt + 2 sum <g_n, y_n> dt
      rhs = martingale terms + sum |C_n dW_n|^2 + sum over jumps |D|^2

    with the quadratic terms taken as realized (the realized Wiener bracket
    and the realized jump sum); the deterministic forms |C|_Q^2 dt and the
    jump compensator agree with these only in expectation, which is the
    isometry/compensator identity tested elsewhere.

    ``noise`` is a NoiseBatch of M paths sharing the data (g, C, D).  All
    members are stepped together and every term is an array of M values, summed
    block by block of steps by a reducer on the block's noise: no trajectory is kept.
    """
    grid = noise.grid
    g, C, D, comp, drive = _linear_terms(A, g, C, D, noise, marks)
    dt, steps, dW, counts = grid.dt, grid.steps, noise.wiener.increments, noise.cell_counts
    # per member: sum <A y_n + g_n, y_n>, <y_n, C dW>, <y_n, D dN - dt D m>, |C dW|^2; |y_N|^2
    sums = np.zeros((5, len(noise)))

    def reduce(node, cols, states):   # states (K, 1, n, w): y of nodes node to node + K - 1
        y = states[:, 0]
        if node + len(y) > steps:
            sums[4, cols] = np.einsum("im,im->m", y[-1], y[-1])
        left = y[:steps - node]       # the left states of cells node, node + 1, ...
        cells = slice(node, node + len(left))
        wiener = C[cells] @ dW[cols, cells].transpose(1, 2, 0)
        jump = D[cells] @ counts[cols, cells].transpose(1, 2, 0) - comp[cells, :, None]
        sums[0, cols] += (np.einsum("kim,kim->m", A.matrix @ left, left)
                          + np.einsum("ki,kim->m", g[cells], left))
        sums[1, cols] += np.einsum("kim,kim->m", left, wiener)
        sums[2, cols] += np.einsum("kim,kim->m", left, jump)
        sums[3, cols] += np.einsum("kim,kim->m", wiener, wiener)

    _linear_steps(A, drive, (np.eye(A.dim),), SchemeConfig("yosida_explicit", dt, 0.0), reduce)
    w = A.space.weight
    drift, mart_wiener, mart_jump, bracket_wiener, final_sq = (
        sums * np.array([2.0 * dt * w, 2.0 * w, 2.0 * w, w, w])[:, None])
    jump_sq = quadratic_mark_sum(D, noise.jumps, marks, grid, A.space)
    return {"lhs": final_sq + drift, "rhs": mart_wiener + mart_jump + bracket_wiener + jump_sq,
            "martingale_wiener": mart_wiener, "martingale_jump": mart_jump,
            "bracket_wiener": bracket_wiener, "jump_square_sum": jump_sq, "final_sq_norm": final_sq}


def ito_energy_residual(A: SpectralOperator, g, C, D, noise: NoiseBatch,
                        marks: MarkSpace) -> np.ndarray:
    """|lhs - rhs| of ito_energy_terms: the energy identity's defect per member of ``noise``."""
    terms = ito_energy_terms(A, g, C, D, noise, marks)
    return np.abs(terms["lhs"] - terms["rhs"])
