"""Time-stepping schemes for the mild (convolution) form of the equation.

Three one-step maps share one stepper, ``step_ensemble``, which advances
an ensemble of noise paths in (spec, scheme config) groups of one step size
at once; ``solve`` steps one path, a ``NoiseBatch`` of one, under configs:

* ``exp_euler``: exponential Euler, u_{n+1} = exp(-dt A)[u_n + increments],
  the direct discretization of the variation-of-constants form;
* ``resolvent_implicit``: backward-Euler resolvent step,
  u_{n+1} = (I + dt A)^{-1}[u_n + increments], unconditionally stable;
* ``yosida_explicit``: explicit Euler with A replaced by its bounded
  regularization A_eps, the scheme behind semigroup-approximation studies.

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
from .model import EquationSpec, MarkSpace, Nonlinearity
from .noise import NoiseBatch, TimeGrid, _check_step_process, quadratic_mark_sum
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

_REL_TOL = 1e-12
# values held per (K, n, M) block array (noise projections, new states) in step_ensemble
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme identifier plus its step size; epsilon only for yosida_explicit."""

    scheme: str
    dt: float
    epsilon: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be finite and > 0, got {self.dt}")
        if self.scheme == "yosida_explicit" and not 0.0 < (self.epsilon or 0.0) < math.inf:
            raise ConfigurationError(
                f"yosida_explicit requires a finite epsilon > 0, got {self.epsilon}")


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


def _linear_factors(A: SpectralOperator, scheme: str, dt: float) -> np.ndarray:
    """Eigenvalue factors of a diagonal one-step map: exp(-dt lam) or 1/(1 + dt lam)."""
    if scheme == "exp_euler":
        return A.semigroup_factors(dt)
    if scheme == "resolvent_implicit":
        return A.resolvent_factors(dt)
    raise ConfigurationError(f"diagonal one-step maps exist for exp_euler and "
                             f"resolvent_implicit, got {scheme!r}")


def _explicit_rates(A: SpectralOperator, dt: float, epsilon: float | None = None) -> np.ndarray:
    """The eigenvalues of A, or of A_eps for an ``epsilon``, if an explicit Euler step
    of size dt is stable for them (dt * lam_max < 2), else ConfigurationError."""
    rates = A.eigenvalues if epsilon is None else A.yosida_factors(epsilon)
    cap = dt * float(rates.max())
    if cap >= 2.0:
        bound, given = ("dt*lam_max", f"dt={dt}") if epsilon is None else (
            "dt*lam_max/(1+eps*lam_max)", f"dt={dt}, eps={epsilon}")
        raise ConfigurationError(f"explicit Euler unstable: {bound} = {cap:.3g} >= 2 ({given})")
    return rates


def _propagator(A: SpectralOperator, config: SchemeConfig) -> np.ndarray:
    """Dense matrix of the scheme's linear one-step map in state coordinates."""
    V, w = A.eigenvectors, A.space.weight
    if config.scheme != "yosida_explicit":
        return (V * _linear_factors(A, config.scheme, config.dt)) @ (w * V.T)
    yos = _explicit_rates(A, config.dt, config.epsilon)
    return np.eye(A.dim) - config.dt * (V * yos) @ (w * V.T)


def _derivative_bound(abs_coeffs: tuple, r: float) -> float:
    """sum_p |a_p| r**p by Horner's rule, a bound on |f'(u)| for |u| <= r.

    Python float products overflow to inf, which the screen reads as unbounded.
    """
    bound = 0.0
    for c in reversed(abs_coeffs):
        bound = bound * r + c
    return bound


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
    weights and mark space and whose configs share one dt and step form (else
    ConfigurationError).  Returns states (G, M, N+1, n), unless ``reduce``.

    ``dW`` holds the Wiener increments (M, N, d) and ``counts`` the per-cell
    jump counts (M, N, J) of each member, float64 or exact whole numbers in
    float32 (``NoiseBatch.cell_counts``), which the projections read as the
    same float64 values.  The noise increment of a step is
    B(u) dW + G(u) counts - dt G(u) m, with B and G evaluated at the left
    state, so the jump part is exactly centered.  exp_euler and
    resolvent_implicit step V = P_g(U - dt F(U) + inc), yosida_explicit
    V = P_g U - dt F(U) + inc.  Each group keeps the bits of a call with it
    alone: a stacked (G, n, n) product has the bits of the 2-D one, and each
    spec projects the noise of all members with its own 2-D products.

    Members step in slices of contiguous (G, n, w) arrays, w the largest power
    of two at most _BLOCK_VALUES // (G n); a one-member tail, which would take
    a matrix-vector product, joins the slice before.  Slice edges so fall on
    the column panels of the BLAS kernels, keeping the bits of an unsliced
    product on the tested sizes.  Steps run in blocks of K, about 2**15 values
    per (K, G, n, M) array; a block projects the state-free noise factors once
    (when B and G are additive, the whole increment, formed in place in the
    projection that has every group).  Each slice's new states go into two
    (K, G, n, w) buffers used in turn, u0 into the second, and the implicit
    forms share one (G, n, w) scratch array across the slices, which step one
    after another.  Once a block's slices are stepped and checked,
    ``reduce(node, cols, states)`` takes each slice's states (K, G, n, w) of
    nodes node to node + K - 1, members ``cols`` in order (views of reused
    buffers); its first call takes the initial states.

    Checks run once per block and group, on r = max|u| of each new state over
    all slices.  A non-finite r (it propagates nan and inf) is a blow-up; the
    call raises the BlowUpError, with the text of its own call, of the group
    that blew up first.  Stiffness policy, per group: one StiffnessWarning at
    the first step where dt * max|f'(u)|, over every member and component,
    reaches 1 (a constant f' is checked once).  |f'(u)| <= sum_p |a_p| r**p
    grows with r, so a block whose largest r keeps dt times that bound below
    1/2 is clean; any other is checked step by step, exactly on the stored
    state where the bound reaches 1/2 (the factor 2 absorbs rounding), and
    only before the group's blow-up.  yosida_explicit raises
    ConfigurationError unless dt * lam_max / (1 + eps * lam_max) < 2.
    """
    specs, configs = tuple(s for s, _ in groups), tuple(c for _, c in groups)
    if len({(c.dt, c.scheme == "yosida_explicit") for c in configs}) != 1:
        raise ConfigurationError(f"one step_ensemble call takes configs of one dt and one "
                                 f"step form, got {configs}")
    spec = specs[0]
    for other in specs[1:]:
        _require_shared_frame(spec, other)
    members, steps = dW.shape[:2]
    n_groups, n = len(groups), spec.A.dim
    dt, explicit = configs[0].dt, configs[0].scheme == "yosida_explicit"

    def shared(mats):   # a coefficient that every spec shares is projected once
        return mats[:1] if all(np.array_equal(m, mats[0]) for m in mats) else mats

    def project(mats, noise):   # mats[s] @ noise (K, d, M) as (K, S, rows, M)
        out = np.empty((len(noise), len(mats), len(mats[0]), noise.shape[2]))
        for i, m in enumerate(mats):
            np.matmul(m, noise, out=out[:, i])
        return out

    prop = np.stack([_propagator(spec.A, config) for config in configs])
    F = spec.F
    fprime = Nonlinearity(F.derivative_coefficients())
    drift_varies = len(fprime.coefficients) > 1
    fprime_abs = tuple(abs(c) for c in fprime.coefficients)
    cap = [dt * fprime_abs[0] if len(fprime_abs) == 1 else 0.0] * n_groups
    checking = [drift_varies or cap[0] >= 1.0] * n_groups   # until the group's warning
    additive = all(s.B.additive and s.G.additive for s in specs)
    b_base, g_base = shared([s.B.base for s in specs]), shared([s.G.base for s in specs])
    b_scale = shared([s.B.state_scale[None] for s in specs])
    g_scale = shared([s.G.state_scale[None] for s in specs])
    mark_w = spec.marks.weight_array
    g_comp = np.stack([dt * (base @ mark_w)[:, None] for base in g_base])
    s_comp = np.stack([np.full((1, 1), dt * float(scale[0] @ mark_w)) for scale in g_scale])
    block = max(1, _BLOCK_VALUES // (n_groups * members * n))
    width = 1 << max(1, _BLOCK_VALUES // (n_groups * n)).bit_length() - 1
    slices = [slice(lo, lo + width if members - lo > width + 1 else members)
              for lo in range(0, max(1, members - 1), width)]
    u0 = np.stack([s.u0[:, None] for s in specs])
    # each slice's new states, in two (K, G, n, w) buffers used in turn; u0 starts in the second
    bufs = [np.empty((2, block, n_groups, n, c.stop - c.start)) for c in slices]
    for buf in bufs:
        buf[1, 0] = u0
    U = [buf[1, 0] for buf in bufs]
    scratch = np.empty(max(buf[0, 0].size for buf in bufs))   # U - dt F(U) + inc, per slice
    r = np.empty((block + 1, n_groups))    # r[k, g]: max|u| of group g before step first + k
    r[0] = np.abs(u0).max(axis=(-2, -1))
    states = np.empty((n_groups, members, steps + 1, n)) if reduce is None else None

    def fill(node, cols, block_states):   # the default reducer
        states[:, cols, node:node + len(block_states)] = block_states.transpose(1, 3, 0, 2)
    reduce = reduce or fill
    for cols, buf in zip(slices, bufs):
        reduce(0, cols, buf[1, :1])
    # an overflowing state is reported as BlowUpError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, block):
            dW_k, dN_k = (x[:, first:first + block].transpose(1, 2, 0) for x in (dW, counts))
            b_dW, g_counts = project(b_base, dW_k), project(g_base, dN_k)
            if additive:   # the increments, in the projection that has every group
                full, other = ((b_dW, g_counts) if b_dW.shape[1] >= g_counts.shape[1]
                               else (g_counts, b_dW))
                full += other
                full -= g_comp
                factors = (full,)
            else:
                factors = (b_dW, project(b_scale, dW_k), g_counts, project(g_scale, dN_k))
            K = len(b_dW)
            starts, news = list(U), []
            for i, cols in enumerate(slices):
                buf, Ui = bufs[i][(first // block) % 2, :K], U[i]
                Si = scratch[:Ui.size].reshape(Ui.shape)
                for V, step_factors in zip(buf, zip(*(x[..., cols] for x in factors))):
                    if additive:
                        inc, = step_factors
                    else:
                        b_k, s_b, g_k, s_g = step_factors
                        inc = b_k + Ui * s_b
                        inc += g_k + Ui * s_g
                        inc -= g_comp + s_comp * Ui
                    if explicit:
                        np.matmul(prop, Ui, out=V)
                        if F.coefficients:
                            fu = F(Ui)
                            fu *= dt
                            V -= fu
                        V += inc
                    else:
                        if F.coefficients:
                            fu = F(Ui)
                            fu *= dt
                            np.subtract(Ui, fu, out=Si)
                            Si += inc
                        else:
                            np.add(Ui, inc, out=Si)
                        np.matmul(prop, Si, out=V)
                    Ui = V
                U[i] = Ui
                news.append(buf)
            r[1:K + 1] = np.max([np.abs(new).max(axis=(2, 3)) for new in news], axis=0)
            blown = not math.isfinite(r[1:K + 1].max())               # in some group
            blowups = []
            for g, rg in enumerate(r.T):
                # the steps whose left state may be checked: those before a blow-up
                checked = K
                if blown and not np.isfinite(rg[1:K + 1]).all():
                    checked = int(np.isfinite(rg[1:K + 1]).argmin()) + 1
                    blowups.append((first + checked, g))
                if checking[g] and drift_varies:
                    cap[g] = dt * _derivative_bound(fprime_abs, float(rg[:checked].max()))
                for k in range(checked if checking[g] and not cap[g] < 0.5 else 0):
                    if drift_varies:
                        cap[g] = dt * _derivative_bound(fprime_abs, float(rg[k]))
                        if not cap[g] < 0.5:
                            lefts = [new[k - 1, g] if k else u[g] for new, u in zip(news, starts)]
                            cap[g] = dt * float(np.max([np.abs(fprime(x)).max() for x in lefts]))
                    if cap[g] >= 1.0:
                        warnings.warn(
                            f"explicit drift step outside safety region at step {first + k}: "
                            f"dt*max|f'(u)| = {cap[g]:.3g} >= 1",
                            StiffnessWarning, stacklevel=2)
                        checking[g] = False
                        break
            if blowups:
                step, g = min(blowups)
                t = step * (spec.T / steps)
                raise BlowUpError(f"{configs[g].scheme} produced a non-finite state at step "
                                  f"{step} (t={t:.6g})", step=step, time=t)
            for cols, new in zip(slices, news):
                reduce(first + 1, cols, new)
            r[0] = r[K]
    return states


def _integrability(spec: EquationSpec, states: np.ndarray, dt: float) -> float:
    """dt * sum over left states of |F(u)| + |B(u)|_Q^2 + |G(u)|_m^2.

    For column weights c_k, sum_k c_k |base_k + s_k u|^2 expands to
    sum_k c_k |base_k|^2 + 2 <u, base (c s)> + |u|^2 sum_k c_k s_k^2.
    """
    u = states[:-1]
    space = spec.space
    total = np.sqrt(space.sq_norms(spec.F(u)))
    for coeff in (spec.B, spec.G):
        cs = coeff.weights * coeff.state_scale
        total += space.weight * ((coeff.base * coeff.base).sum(axis=0) @ coeff.weights
                                 + 2.0 * (u @ (coeff.base @ cs)))
        total += float(cs @ coeff.state_scale) * space.sq_norms(u)
    return float(dt * total.sum())


def solve(spec: EquationSpec, noise: NoiseBatch, configs: tuple) -> tuple:
    """One noise path (a NoiseBatch of one) stepped under each config (one dt and
    step form) by one step_ensemble call; a Trajectory per config."""
    grid = _validate_noise(spec, noise, configs)
    states = step_ensemble(noise.wiener.increments, noise.cell_counts,
                           tuple((spec, config) for config in configs))[:, 0]
    states.setflags(write=False)
    return tuple(Trajectory(grid, s, _integrability(spec, s, configs[0].dt)) for s in states)


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
# Coefficients are per-cell arrays with no state dependence, which is what
# makes the resolvent-commutation identity below exact at the discrete level.
# ---------------------------------------------------------------------------


def _as_linear_data(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace):
    for name, val in (("g", g), ("C", C), ("D", D)):
        if callable(val):
            raise TypeError(f"{name} must be a per-cell array; state-dependent "
                            "coefficients are not allowed for linear-data runs")
    grid = noise.grid
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.steps, A.dim):
        raise ValueError(f"g must have shape ({grid.steps}, {A.dim}), got {g.shape}")
    return (g, _check_step_process(C, grid, "C", noise.wiener.q.shape[0], A.dim),
            _check_step_process(D, grid, "D", marks.atom_count, A.dim))


def solve_linear_data(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace,
                      scheme: str = "exp_euler") -> np.ndarray:
    """Solve the linear-data equation on one noise path (a NoiseBatch of one) from
    y(0) = 0; returns states (steps+1, n)."""
    grid = _one_path(noise)
    g, C, D = _as_linear_data(A, g, C, D, noise, marks)
    factors = _linear_factors(A, scheme, grid.dt)
    dW, counts, dt = noise.wiener.increments[0], noise.cell_counts[0], grid.dt
    # every step's increment at once: row n of C @ dW[:, :, None] is C[n] @ dW[n]
    inc = (-dt * g + (C @ dW[:, :, None])[..., 0] + (D @ counts[:, :, None])[..., 0]
           - dt * (D @ marks.weight_array))
    states = np.zeros((grid.steps + 1, A.dim))
    for n in range(grid.steps):
        states[n + 1] = A.synthesize(factors * A.coords(states[n] + inc[n]))
    return states


def regularized_coupling_identity(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace,
                                  epsilon: float, scheme: str = "exp_euler") -> float:
    """Residual of the exact discrete regularization identity.

    Solves the linear-data equation once with (g, C, D) giving y and once
    with the resolvent-mollified data giving y_eps, on the same path (a
    NoiseBatch of one) and scheme, and returns
    sup_n |y_eps(t_n) - (I + eps A)^{-1} y(t_n)|.  The
    identity is exact at the discrete level because the resolvent commutes
    with the diagonal one-step map, so the residual is floating-point noise.
    """
    g, C, D = _as_linear_data(A, g, C, D, noise, marks)
    J = A.resolvent_matrix(epsilon)
    g_eps = g @ J  # J is symmetric, so right-multiplication applies it rowwise
    C_eps = np.einsum("ij,mjd->mid", J, C)
    D_eps = np.einsum("ij,mjd->mid", J, D)
    y = solve_linear_data(A, g, C, D, noise, marks, scheme)
    y_eps = solve_linear_data(A, g_eps, C_eps, D_eps, noise, marks, scheme)
    gap = y_eps - y @ J
    return float(np.sqrt(A.space.sq_norms(gap)).max())


def ito_energy_terms(A: SpectralOperator, g, C, D, noise: NoiseBatch, marks: MarkSpace) -> dict:
    """Both sides of the discrete energy identity for the square of the norm.

    The path is stepped with plain explicit Euler (A is bounded here), for
    which the identity |y_N|^2 = 2 sum <y_n, b_n> + sum |b_n|^2 telescopes
    exactly; the reported sides are

      lhs = |y(T)|^2 + 2 sum <A y_n, y_n> dt + 2 sum <g_n, y_n> dt
      rhs = martingale terms + sum |C_n dW_n|^2 + sum over jumps |D|^2

    with the quadratic terms taken as realized (the realized Wiener bracket
    and the realized jump sum); the deterministic forms |C|_Q^2 dt and the
    jump compensator agree with these only in expectation, which is the
    isometry/compensator identity tested elsewhere.

    ``noise`` is a NoiseBatch of M paths sharing the data (g, C, D).  All
    members are stepped together and every term is an array of M values.
    """
    grid = noise.grid
    g, C, D = _as_linear_data(A, g, C, D, noise, marks)
    dt = grid.dt
    _explicit_rates(A, dt)
    wiener_inc = np.einsum("nij,mnj->mni", C, noise.wiener.increments)
    jump_inc = np.einsum("nij,mnj->mni", D, noise.cell_counts) - dt * (D @ marks.weight_array)
    drive = wiener_inc + jump_inc - dt * g
    Amat = A.matrix
    y = np.zeros((len(noise), grid.steps + 1, A.dim))                   # y_0 = 0
    Ay = np.empty_like(drive)
    for n in range(grid.steps):
        Ay[:, n] = y[:, n] @ Amat.T
        y[:, n + 1] = y[:, n] - dt * Ay[:, n] + drive[:, n]
    left, final = y[:, :-1], y[:, -1]
    w = A.space.weight
    drift = 2.0 * dt * w * (np.einsum("mni,mni->m", Ay, left) + np.einsum("ni,mni->m", g, left))
    mart_wiener = 2.0 * w * np.einsum("mni,mni->m", left, wiener_inc)
    mart_jump = 2.0 * w * np.einsum("mni,mni->m", left, jump_inc)
    bracket_wiener = w * np.einsum("mni,mni->m", wiener_inc, wiener_inc)
    jump_sq, _ = quadratic_mark_sum(D, noise.jumps, marks, grid, grid.horizon, A.space)
    final_sq = w * np.einsum("mi,mi->m", final, final)
    return {
        "lhs": final_sq + drift,
        "rhs": mart_wiener + mart_jump + bracket_wiener + jump_sq,
        "martingale_wiener": mart_wiener,
        "martingale_jump": mart_jump,
        "bracket_wiener": bracket_wiener,
        "jump_square_sum": jump_sq,
        "final_sq_norm": final_sq,
    }


def ito_energy_residual(A: SpectralOperator, g, C, D, noise: NoiseBatch,
                        marks: MarkSpace) -> np.ndarray:
    """|lhs - rhs| of ito_energy_terms: the energy identity's defect per member of ``noise``."""
    terms = ito_energy_terms(A, g, C, D, noise, marks)
    return np.abs(terms["lhs"] - terms["rhs"])
