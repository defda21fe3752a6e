"""Verification experiments for uniqueness, contraction and stability.

Uniqueness is operationalized as its strongest computable consequences:
scheme-pair self-convergence on a shared noise path, contraction
of synchronously coupled solutions under a certified dissipativity margin,
data-stability constants, Cauchy behavior of regularized-data solution
sequences, and per-mode weak-formulation residuals.  Every experiment is a
pure function of its inputs and seeds; INCONCLUSIVE is a first-class verdict
and missing evidence is never converted into PASS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigurationError, HypothesisError
from .model import EquationSpec, MarkSpace, check_dissipativity_triplet, weighted_norm
from .noise import (NoiseBatch, TimeGrid, data_rng, poisson_integral, quadratic_mark_sum,
                    run_memo, sample_jump_table, sample_noise_batch, sample_wiener_rows,
                    shared_draws, step_sq_integral)
from .solver import (_BLOCK_VALUES, SchemeConfig, Trajectory, _require_shared_frame,
                     ito_energy_residual, regularized_coupling_identity, step_ensemble)
from .space import HilbertSpace, SpectralOperator, resolvent_apply, yosida_apply
from .textio import Record, fmt

__all__ = [
    "PASS", "FAIL", "INCONCLUSIVE",
    "fit_order",
    "ExperimentReport",
    "coupling_uniqueness_experiment",
    "contraction_experiment",
    "stability_estimate_experiment",
    "generalized_solution_cauchy",
    "weak_solution_residual",
    "weak_residual_experiment",
    "yosida_convergence_experiment",
    "yosida_coupling_bound",
    "resolvent_algebra_check",
    "wiener_isometry_experiment",
    "poisson_isometry_experiment",
    "compensator_experiment",
    "regularization_identity_experiment",
    "energy_identity_experiment",
]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# Verdict constants, each named in the docstring of the rule that reads it.
_ZERO_FLOOR = 1e-14             # a mean square, data distance or gap this small is 0
_FIT_FLOOR = 1e-15              # fit_order drops the points at or below it
_ISOMETRY_REL_TOL = 0.05        # isometry checks: relative error of the second moment
_CONTINUITY_FACTOR = 5.0        # stability: largest change of N between adjacent times
_COUPLED_SCHEME = "exp_euler"   # the scheme of the contraction, stability, cauchy ensembles
_BOUND_SLACK = 1e-9             # yosida_coupling_bound: relative and absolute slack

# The most steps a grid may take over its horizon: 256 times the finest shipped grid.
MAX_STEPS = 2**20


def fit_order(x, y) -> float:
    """Least-squares slope of log2(y) against log2(x).

    Entries with y <= _FIT_FLOOR are dropped; with fewer than two informative
    points the decay is reported as infinite (the degenerate exactly-zero
    case).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (y > _FIT_FLOOR) & np.isfinite(y)
    if keep.sum() < 2:
        return math.inf
    lx = np.log2(x[keep])
    ly = np.log2(y[keep])
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """What every experiment returns: the report ``rows`` (Records), the named
    (x, y, err) plot curves of ``curve_map`` and a ``summary`` of the arrays and
    scalars behind them, whose keys each experiment's docstring names.

    The verdict is read off the rows, so a report cannot disagree with them."""

    name: str
    rows: tuple
    curve_map: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """INCONCLUSIVE if a row is, or if no row carries a verdict (missing evidence
        is never PASS); else FAIL if a row FAILs; else PASS."""
        judged = {row.verdict for row in self.rows} - {"-"}
        if INCONCLUSIVE in judged or not judged:
            return INCONCLUSIVE
        return FAIL if FAIL in judged else PASS


def _log2_curve(name: str, x, y, se=None) -> dict:
    """{name: (log2 x, log2 y, se / y or 0)} over the points with y > 0, in ascending x;
    {} when there are none, so a blown-up or exactly-zero sweep writes no curve."""
    keep = y > 0
    if not np.any(keep):
        return {}
    lx = np.log2(np.asarray(x, dtype=float)[keep])
    order = np.argsort(lx)
    err = np.zeros(int(keep.sum())) if se is None else se[keep] / y[keep]
    return {name: (lx[order], np.log2(y[keep])[order], err[order])}


def _solve_ensemble(spec: EquationSpec, grid: TimeGrid, dt: float, scheme: str,
                    seed: int, ensemble_size: int,
                    paths: NoiseBatch | None = None) -> np.ndarray:
    """States for an ensemble of independent paths, shape (members, nodes, dim).

    Noise follows the seeding contract of :func:`sample_noise_batch`.  Pass
    ``paths`` (a NoiseBatch) to reuse realized noise.
    """
    if paths is None:
        paths = sample_noise_batch(spec.B.q, spec.marks, grid, seed, ensemble_size)
    return step_ensemble(paths.wiener.increments, paths.cell_counts,
                         ((spec, SchemeConfig(scheme, dt)),))[0]


def _mean_stderr(samples: np.ndarray, axis: int = 0):
    """Sample mean along ``axis`` and its standard error (0 for a single sample)."""
    count = samples.shape[axis]
    mean = samples.mean(axis=axis)
    if count < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=axis, ddof=1) / math.sqrt(count)


# _coupled_moments reduces the gaps of at least this many nodes at a time
# rather than padding a one-node block to two columns.  Its (members, pairs,
# nodes) reduction adds member by member, pairs x nodes wide, as the whole
# array's does, but one pair's lone column reduces pairwise: two keep the bits,
# and the held array is then no larger than the padded one (holding 3 or 4
# raised acceptance's peak RSS by about 1.2 MB, measured with
# bench/repetition.py on an x86-64 Xeon).
_HELD_NODES = 2


def _coupled_moments(frame: EquationSpec, specs, dt: float, seed: int, members: int):
    """A function returning the per-node mean and standard error of |u_p - u_{p+1}|^2
    over the members, each of shape (pairs, nodes), for consecutive specs stepped
    with _COUPLED_SCHEME as the data groups of one step_ensemble call on the grid
    of step dt.

    Every spec must share ``frame``'s operator, drift, horizon, covariance
    weights and mark space, so that the specs differ only in their data (u0,
    B, G).  This and ``members >= 1`` are checked at the call; nothing is
    sampled until the returned function is called.  It draws one batch of
    ``members`` paths with ``frame``.  A reducer holds the gaps of completed
    blocks of nodes member-major, (members, pairs, columns), until it holds
    _HELD_NODES nodes or the last one, and then reduces them over members with
    _mean_stderr: two or more columns keep the bits of the moments of the whole
    (members, nodes) array, one pair's bare column would not.  No trajectory
    or gap array exists.  Within a run each pair's moments are kept in the run
    memo, keyed on the two spec payloads, grid, dt, seed and members, and a
    call whose pairs are all held steps nothing.
    """
    if members < 1:
        raise ConfigurationError(f"ensemble size must be >= 1, got {members}")
    for spec in specs:
        _require_shared_frame(frame, spec)
    grid = _grid(frame.T, dt)
    keys = [("coupled_moments", a.payload(), b.payload(), grid.horizon, grid.steps, dt, seed,
             members) for a, b in zip(specs, specs[1:])]

    def moments():
        memo = run_memo()
        if memo is not None and all(key in memo for key in keys):
            return tuple(np.array(rows) for rows in zip(*(memo[key] for key in keys)))
        paths = sample_noise_batch(frame.B.q, frame.marks, grid, seed, members)
        mean, se = np.empty((2, len(keys), grid.steps + 1))
        held, filled, gaps = np.zeros((members, len(keys), 2)), 0, np.empty(0)

        def reduce(node, cols, states):
            nonlocal held, filled, gaps
            K = len(states)
            if held.shape[2] < filled + K:      # room for the block after the held nodes
                held = np.concatenate(
                    (held[:, :, :filled], np.zeros((members, len(keys), K))), axis=2)
            # the gaps (pairs, w, K, n), contiguous so that sq_norms sums as over a trajectory
            # array, in one buffer that grows to the largest block
            t = states.transpose(1, 3, 0, 2)
            gaps = gaps if gaps.size >= t[1:].size else np.empty(t[1:].size)
            gap = np.subtract(t[:-1], t[1:], out=gaps[:t[1:].size].reshape(t[1:].shape))
            held[cols, :, filled:filled + K] = frame.space.sq_norms(gap).transpose(1, 0, 2)
            if cols.stop == members:            # the block's last slice
                filled += K
                if filled >= _HELD_NODES or node + K > grid.steps:
                    m, s = _mean_stderr(held, axis=0)
                    done = slice(node + K - filled, node + K)
                    mean[:, done], se[:, done] = m[:, :filled], s[:, :filled]
                    filled = 0

        step_ensemble(paths.wiener.increments, paths.cell_counts,
                      tuple((spec, SchemeConfig(_COUPLED_SCHEME, dt)) for spec in specs), reduce)
        if memo is not None:
            memo.update((key, (m.copy(), s.copy())) for key, m, s in zip(keys, mean, se))
        return mean, se

    return moments


def step_sizes(dts, T: float | None = None, minimum: int = 1) -> list:
    """``dts`` in decreasing order; ConfigurationError unless each is finite, > 0
    and divides ``T`` (if given) into at most MAX_STEPS steps, there are
    ``minimum`` at least, and each halves the one before.  The config reader and
    the experiments check steps with it."""
    for d in dts:
        if not (math.isfinite(d) and d > 0.0):
            raise ConfigurationError(f"step sizes must be finite and > 0, got {d}")
    if len(dts) < minimum:
        raise ConfigurationError(f"need at least {minimum} dyadic step sizes, got {len(dts)}")
    dts = sorted((float(d) for d in dts), reverse=True)
    for d in dts if T is not None else ():
        if T / d > MAX_STEPS + 0.5:
            raise ConfigurationError(f"dt={d} takes {T / d:.6g} steps over the horizon "
                                     f"T={T}, more than MAX_STEPS = {MAX_STEPS}")
        steps = round(T / d)
        if steps < 1 or abs(steps * d - T) > 1e-9 * max(T, 1.0):
            raise ConfigurationError(f"dt={d} does not divide the horizon T={T} evenly")
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ConfigurationError(f"step sizes must be dyadic, got ratio {a / b} for {a}/{b}")
    return dts


def _grid(T: float, dt: float) -> TimeGrid:
    """The uniform grid of step dt on [0, T]; dt must be finite, positive and divide T."""
    dt, = step_sizes([dt], T)
    return TimeGrid(T, round(T / dt))


# ---------------------------------------------------------------------------
# Coupling / uniqueness
# ---------------------------------------------------------------------------


class _PathSums:
    """The per-path reductions of coupling and weak_residual, collected as the
    ``reduce`` of one step_ensemble call on ``noise`` (a NoiseBatch of one) in
    ``groups`` groups of ``spec``: no trajectory is kept.

    Per group g: ``integrability[g]``, the pathwise integral dt * sum over the
    left states of |F(u)| + |B(u)|_Q^2 + |G(u)|_m^2, and ``weak_terms(g)``,
    _weak_residual's reductions.  Over groups 0 and 1: ``sq_gap``, the largest
    |u - v|^2 over the nodes.  A call takes states (K, G, n, 1) of nodes node to
    node + K - 1 (a block of step_ensemble, or a whole trajectory as one block)
    and reduces them about _BLOCK_VALUES values at a time.  Every sum runs node
    by node: np.add.reduce over the rows [carry; block] of one contiguous array
    of two or more columns adds them in order, so any split of the nodes into
    blocks gives the same bits.

    For column weights c_k, sum_k c_k |base_k + s_k u|^2 expands to
    sum_k c_k |base_k|^2 + 2 <u, base (c s)> + |u|^2 sum_k c_k s_k^2.
    """

    def __init__(self, spec: EquationSpec, noise: NoiseBatch, groups: int = 1):
        self.spec, self.groups, self.dt, self.steps = spec, groups, noise.grid.dt, noise.grid.steps
        self.dW, self.counts = noise.wiener.increments[0], noise.cell_counts[0]
        coeffs, w = (spec.B, spec.G), spec.space.weight
        cs = [c.weights * c.state_scale for c in coeffs]
        self.const = w * sum(float((c.base * c.base).sum(axis=0) @ c.weights) for c in coeffs)
        self.linear = 2.0 * w * sum(c.base @ x for c, x in zip(coeffs, cs))
        self.square = sum(float(x @ c.state_scale) for c, x in zip(coeffs, cs))
        # the sums of u, F(u), u (s_B . dW) and u (s_G . dN), each (G, n), of the integrand
        # (G) and of dW and dN.  Row 0 of the reused block is the carry.
        n, d, J = spec.A.dim, self.dW.shape[1], self.counts.shape[1]
        size = groups * (4 * n + 1) + d + J
        self.block = np.zeros((max(1, _BLOCK_VALUES // size) + 1, size))
        self.sums = self.block[0]
        self.ends = np.zeros((2, groups, n))    # u_0 and u_N of each group
        self.sq_gap = 0.0

    def __call__(self, node, cols, states):
        spec, space, G, n = self.spec, self.spec.space, self.groups, self.spec.A.dim
        for first in range(node, node + len(states), len(self.block) - 1):
            u = states[first - node:first - node + len(self.block) - 1, :, :, 0]
            if first == 0:
                self.ends[0] = u[0]
            if first + len(u) > self.steps:
                self.ends[1] = u[-1]
            if G > 1:
                self.sq_gap = max(self.sq_gap, float(space.sq_norms(u[:, 0] - u[:, 1]).max()))
            cells = slice(first, min(first + len(u), self.steps))   # those of the left states
            dW, dN = self.dW[cells], self.counts[cells] - self.dt * spec.marks.weight_array
            # contiguous (K, G, n): each row's dot products keep their bits in any block
            x = np.ascontiguousarray(u[:len(dW)])
            fx = spec.F(x)
            rows = self.block[1:len(x) + 1]
            terms = rows[:, :4 * G * n].reshape(len(x), 4, G, n)
            terms[:, 0], terms[:, 1] = x, fx
            np.multiply(x, np.einsum("kj,j->k", dW, spec.B.state_scale)[:, None, None],
                        out=terms[:, 2])
            np.multiply(x, np.einsum("kj,j->k", dN, spec.G.state_scale)[:, None, None],
                        out=terms[:, 3])
            rows[:, 4 * G * n:(4 * n + 1) * G] = (
                np.sqrt(space.sq_norms(fx)) + self.const + np.einsum("kgi,i->kg", x, self.linear)
                + self.square * space.sq_norms(x))
            rows[:, (4 * n + 1) * G:] = np.concatenate((dW, dN), axis=1)
            self.sums[...] = np.add.reduce(self.block[:len(x) + 1], axis=0)

    @property
    def integrability(self) -> np.ndarray:
        """Per group, dt * the sum of the integrand over the left states taken so far."""
        G, n = self.groups, self.spec.A.dim
        return self.dt * self.sums[4 * G * n:(4 * n + 1) * G]

    def weak_terms(self, g: int) -> tuple:
        """The reductions of the weak residual that depend on neither eps nor k_max: dt
        and, in eigen-coordinates, u_0, u_N, the sums of u_n and F(u_n) over the left
        states and the noise totals sum_n B(u_n) dW_n and sum_n G(u_n) dN_n of group g
        (ValueError unless its integrability is finite)."""
        if not np.isfinite(self.integrability[g]):
            raise ValueError("trajectory fails the pathwise integrability check")
        spec, A, G = self.spec, self.spec.A, self.groups
        u_sum, f_sum, u_w, u_j = self.sums[:4 * G * A.dim].reshape(4, G, A.dim)[:, g]
        dW_sum, dN_sum = np.split(self.sums[(4 * A.dim + 1) * G:], [self.dW.shape[1]])
        # sum_n (base + u_n (x) scale) dX_n = base sum_n dX_n + sum_n u_n (scale . dX_n)
        return (self.dt, A.coords(self.ends[0, g]), A.coords(self.ends[1, g]), A.coords(u_sum),
                A.coords(f_sum), A.coords(spec.B.base @ dW_sum + u_w),
                A.coords(spec.G.base @ dN_sum + u_j))


def coupling_uniqueness_experiment(spec: EquationSpec, seed: int, dt_list,
                                   scheme_pair=("exp_euler", "resolvent_implicit")
                                   ) -> ExperimentReport:
    """Run two schemes on the same realized noise across dyadic step sizes.

    The sup-norm gap between the two numerical solutions must vanish with
    order at least 0.9 for the run to PASS; a blow-up in either scheme makes
    the experiment INCONCLUSIVE.  Both schemes step as the groups of one
    step_ensemble call per step size, reduced block by block by _PathSums, so
    no trajectory is kept; both need a finite pathwise integrability to enter
    the comparison, and in a run their weak-residual reductions are kept for
    weak_residual_experiment.  The path is ensemble member 0 of
    ``sample_noise_batch`` on the finest grid.  Summary: ``gaps``,
    ``fitted_order`` and ``integrability`` (NaN where a step size blew up).
    """
    dts = step_sizes(dt_list, spec.T, minimum=3)
    fine, memo = _grid(spec.T, dts[-1]), run_memo()
    fine_noise = sample_noise_batch(spec.B.q, spec.marks, fine, seed, 1)
    gaps, integs = [], []
    inconclusive = False
    for dt in dts:
        noise = fine_noise.coarsen(round(dt / dts[-1]))
        sums = _PathSums(spec, noise, len(scheme_pair))
        try:
            step_ensemble(noise.wiener.increments, noise.cell_counts,
                          tuple((spec, SchemeConfig(s, dt)) for s in scheme_pair), sums)
            finite = bool(np.isfinite(sums.integrability).all())
        except BlowUpError:
            finite = False
        inconclusive |= not finite
        gaps.append(math.sqrt(sums.sq_gap) if finite else np.nan)
        integs.append(float(sums.integrability.max()) if finite else np.nan)
        for g, scheme in enumerate(scheme_pair) if finite and memo is not None else ():
            memo[_weak_key(spec, seed, fine, dt, scheme)] = sums.weak_terms(g)
    gaps = np.array(gaps)
    order = fit_order(dts, gaps) if not inconclusive else math.nan
    decays = np.all(gaps <= _ZERO_FLOOR) or (np.all(np.diff(gaps) < 0.0) and order >= 0.9)
    rows = [Record("gap", f"dt={fmt(d)}", g, 0.0) for d, g in zip(dts, gaps)]
    rows.append(Record("order", "-", order, 0.0,
                       INCONCLUSIVE if inconclusive else PASS if decays else FAIL))
    return ExperimentReport("coupling", tuple(rows), _log2_curve("gap_vs_dt", dts, gaps),
                            {"gaps": gaps, "fitted_order": order,
                             "integrability": np.array(integs)})


# ---------------------------------------------------------------------------
# Contraction of synchronously coupled solutions
# ---------------------------------------------------------------------------


def _within_envelope(mean: float, se: float, envelope: float) -> bool:
    if mean <= _ZERO_FLOOR:
        return True
    # 1e-12 relative slack absorbs float reassociation at t = 0, where the
    # empirical mean and the envelope are the same quantity computed twice
    return mean <= envelope * (1.0 + 3.0 * se / mean + 1e-12)


def contraction_experiment(spec: EquationSpec, u0_b, ensemble_size: int, seed: int,
                           *, dt: float) -> ExperimentReport:
    """Synchronously coupled decay test under a certified dissipativity margin.

    Each ensemble member drives two solutions, started from spec.u0 and
    u0_b, with the identical noise path; both are stepped with
    _COUPLED_SCHEME as the data groups of one call that keeps only the
    per-node moments of their squared gap (_coupled_moments).  A margin >= 0
    gives E|du(t)|^2 <= exp(-alpha t) |du(0)|^2 by Ito's formula, A being
    monotone, so PASS requires the empirical mean squared gap to sit below
    that envelope up to three standard errors at every grid time.  Refuses
    to run (HypothesisError) if the exact triplet margin for the declared
    alpha is negative; a solver blow-up propagates as BlowUpError.  Summary:
    ``times``, ``mean_sq``, ``stderr``, ``envelope`` (per grid time) and
    ``margin``.
    """
    margin = check_dissipativity_triplet(spec)
    if margin < 0.0:
        raise HypothesisError(
            f"dissipativity hypothesis unmet: margin {margin:.3e} < 0 "
            f"for declared alpha={spec.alpha}")
    u0_b = spec.space.element(u0_b)
    grid = _grid(spec.T, dt)
    (mean,), (se,) = _coupled_moments(spec, [spec, spec.with_data(u0=u0_b)], dt, seed,
                                      ensemble_size)()
    envelope = np.exp(-spec.alpha * grid.times) * spec.space.sq_norms(spec.u0 - u0_b)
    rows = [Record("margin", f"alpha={fmt(spec.alpha)}", margin, 0.0)]
    rows += [Record("mean_sq_gap", f"t={fmt(t)}", m, s,
                    PASS if _within_envelope(m, s, e) else FAIL)
             for t, m, s, e in zip(grid.times, mean, se, envelope)]
    keep = mean > 0
    curves = {"log_gap_vs_t": (grid.times[keep], np.log(mean[keep]), se[keep] / mean[keep])}
    return ExperimentReport("contraction", tuple(rows), curves if keep.any() else {},
                            {"times": grid.times.copy(), "mean_sq": mean, "stderr": se,
                             "envelope": envelope, "margin": margin})


# ---------------------------------------------------------------------------
# Stability constant N(t) and generalized-solution Cauchy sequences
# ---------------------------------------------------------------------------


def _finite_raw_margin(spec: EquationSpec) -> float:
    """Raw margin (alpha = 0) for the Gronwall envelopes, which need it finite."""
    margin = check_dissipativity_triplet(spec, alpha=0.0)
    if margin == -np.inf:
        raise HypothesisError("dissipativity hypothesis unmet: f' is unbounded below, "
                              "so the raw margin is -inf")
    return margin


def _data_distance_steps(spec1: EquationSpec, spec2: EquationSpec, grid: TimeGrid) -> np.ndarray:
    """Per-cell integrand of the squared data distance; requires additive noise.

    Additive coefficients depend on neither t nor u, so every cell holds the
    same value.
    """
    total = 0.0
    for c1, c2, kind in ((spec1.B, spec2.B, "Wiener"), (spec1.G, spec2.G, "jump")):
        if c1 is c2:
            continue
        if not (c1.additive and c2.additive):
            raise ConfigurationError(f"data-distance comparisons need additive {kind} coefficients")
        total += weighted_norm(c1.base - c2.base, c1.weights, spec1.space) ** 2
    return np.full(grid.steps, total)


def stability_estimate_experiment(spec1: EquationSpec, spec2: EquationSpec,
                                  ensemble_size: int, seed: int, *, dt: float
                                  ) -> ExperimentReport:
    """Estimate N(t) = E|u1(t) - u2(t)|^2 / (data distance up to t).

    The two specifications must share the operator, drift, horizon and noise
    frame and may differ only in (u0, B, G) with state-independent noise
    coefficients; both are solved with _COUPLED_SCHEME, and N is read off the
    per-node moments of their squared gap (_coupled_moments, served from the
    run memo when cauchy's chain held the pair).  There is one N row
    per grid time where N is defined.  It FAILs when N(t) exceeds the
    margin-derived envelope exp(2 |margin| t) by more than three standard
    errors, or when it and the N of the row before both exceed 1e-12 and
    differ by more than a factor _CONTINUITY_FACTOR; every N row is
    INCONCLUSIVE when the data distance never exceeds _ZERO_FLOOR.  Refuses
    to run (HypothesisError) when the raw margin is -inf.  Summary, per grid
    time: ``times``, ``n_values`` (NaN where undefined), ``n_stderr`` and
    ``envelope``.
    """
    margin_raw = _finite_raw_margin(spec1)
    grid = _grid(spec1.T, dt)
    steps = grid.steps
    moments = _coupled_moments(spec1, [spec1, spec2], dt, seed, ensemble_size)
    den = np.empty(steps + 1)
    den[0] = spec1.space.sq_norms(spec1.u0 - spec2.u0)
    den[1:] = den[0] + np.cumsum(grid.dt * _data_distance_steps(spec1, spec2, grid))
    (num_mean,), (num_se,) = moments()
    n_vals = np.full(steps + 1, np.nan)
    n_se = np.zeros(steps + 1)
    for k in range(steps + 1):
        if num_mean[k] <= _ZERO_FLOOR:
            n_vals[k] = 0.0
        elif den[k] > _ZERO_FLOOR:
            n_vals[k] = num_mean[k] / den[k]
            n_se[k] = num_se[k] / den[k]
    envelope = np.exp(2.0 * abs(margin_raw) * grid.times)

    measured = np.any(den > _ZERO_FLOOR)
    rows = [Record("raw_margin", "-", margin_raw, 0.0)]
    prev = 0.0
    for t, v, s, e in zip(grid.times, n_vals, n_se, envelope):
        if math.isnan(v):
            continue
        jump = prev > 1e-12 and v > 1e-12 and max(prev / v, v / prev) > _CONTINUITY_FACTOR
        judged = INCONCLUSIVE if not measured else FAIL if jump or not v <= e + 3.0 * s else PASS
        rows.append(Record("N", f"t={fmt(t)}", v, s, judged))
        prev = v
    defined = np.isfinite(n_vals)
    curves = {"n_vs_t": (grid.times[defined], n_vals[defined], n_se[defined])}
    return ExperimentReport("stability", tuple(rows), curves if defined.any() else {},
                            {"times": grid.times.copy(), "n_values": n_vals, "n_stderr": n_se,
                             "envelope": envelope})


def generalized_solution_cauchy(spec: EquationSpec, data_sequence, seed: int, *,
                                ensemble_size: int, dt: float) -> ExperimentReport:
    """Solve along a data sequence converging to the spec's data.

    data_sequence is a list of (u0_n, B_n, G_n) whose distance to the limit
    data must be strictly decreasing; every entry is solved with
    _COUPLED_SCHEME.  Consecutive solutions are compared in the
    sup-in-time mean-square norm, the largest per-node mean of their
    squared gap (_coupled_moments); PASS requires each solution distance to be
    controlled linearly by the matching data distance, with constant
    ``n_bound``, the margin-derived Gronwall envelope exp(2 |margin| T) at
    the horizon (refused, HypothesisError, for a raw margin of -inf).
    Summary: ``solution_dists`` (per consecutive pair) and ``mean_ratio``,
    their geometric-mean ratio.
    """
    if len(data_sequence) < 2:
        raise ConfigurationError("data sequence needs at least two entries")
    grid = _grid(spec.T, dt)
    n_bound = float(np.exp(2.0 * abs(_finite_raw_margin(spec)) * spec.T))
    specs = [spec.with_data(u0=u0_n, B=b_n, G=g_n) for (u0_n, b_n, g_n) in data_sequence]
    moments = _coupled_moments(spec, specs, dt, seed, ensemble_size)

    def total_distance(sa, sb):
        base = spec.space.sq_norms(sa.u0 - sb.u0)
        return float(base + grid.dt * _data_distance_steps(sa, sb, grid).sum())

    limit_dists = [total_distance(s, spec) for s in specs]
    # strictly decreasing toward the limit; ties are allowed only at zero
    if not all(a > b or a <= _ZERO_FLOOR for a, b in zip(limit_dists, limit_dists[1:])):
        raise ConfigurationError(
            f"data distances to the limit must be strictly decreasing, got {limit_dists}")
    data_dists = np.array([total_distance(a, b) for a, b in zip(specs, specs[1:])])
    sol_dists = moments()[0].max(axis=1)

    positive = sol_dists > _ZERO_FLOOR
    ratios = np.array([sol_dists[i + 1] / sol_dists[i]
                       for i in range(len(sol_dists) - 1)
                       if positive[i] and positive[i + 1]])
    mean_ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios.size else 0.0
    rows = []
    for i, (dd, sd) in enumerate(zip(data_dists, sol_dists)):
        rows.append(Record("h2_distance", f"pair={i}-{i + 1}", sd, 0.0,
                           PASS if sd <= n_bound * dd else FAIL))
        rows.append(Record("data_distance", f"pair={i}-{i + 1}", dd, 0.0))
    rows.append(Record("geometric_ratio", "-", mean_ratio, 0.0))
    rows.append(Record("n_bound", "-", n_bound, 0.0,
                       PASS if np.all(sol_dists <= n_bound * data_dists) else FAIL))
    keep = sol_dists > 0
    curves = {"h2_vs_pair": (np.flatnonzero(keep).astype(float), np.log(sol_dists[keep]),
                             np.zeros(int(keep.sum())))}
    return ExperimentReport("cauchy", tuple(rows), curves if keep.any() else {},
                            {"solution_dists": sol_dists, "mean_ratio": mean_ratio})


# ---------------------------------------------------------------------------
# Weak-formulation residual
# ---------------------------------------------------------------------------


def _weak_key(spec: EquationSpec, seed: int, fine: TimeGrid, dt: float, scheme: str) -> tuple:
    """Run-memo key of _PathSums.weak_terms: exact in the spec payload, seed, fine grid,
    dt and scheme."""
    return ("weak_terms", spec.payload(), seed, fine.horizon, fine.steps, dt, scheme)


def _weak_residual(spec: EquationSpec, terms: tuple, epsilon: float, k_max: int) -> np.ndarray:
    """The per-mode residual of the reductions ``terms`` (_PathSums.weak_terms), k < k_max."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= k_max <= spec.A.dim:
        raise ValueError(f"k_max must lie in [1, {spec.A.dim}], got {k_max}")
    dt, first, last, u_sum, f_sum, wiener_total, jump_total = terms
    lam = spec.A.eigenvalues
    residual = last - first + lam * dt * u_sum + dt * f_sum - wiener_total - jump_total
    return np.abs(1.0 / (1.0 + epsilon * lam) * residual)[:k_max]


def weak_solution_residual(traj: Trajectory, spec: EquationSpec, noise: NoiseBatch,
                           epsilon: float = 0.1, k_max: int = 8) -> np.ndarray:
    """Per-mode residual of the discrete weak identity against mollified modes.

    Tests the trajectory against the test functions (I + eps A)^{-1} e_k for
    k < k_max; with a self-adjoint operator these are collinear with e_k, so
    the value of the diagnostic is the per-mode residual decomposition.  The
    residual uses the same left-state discrete stochastic integrals the
    solvers use and vanishes with the step size.  ``noise`` is the NoiseBatch of
    one that ``traj`` was stepped on; _PathSums takes ``traj`` as one block.
    """
    if noise.grid != traj.grid:
        raise ValueError("noise grid does not match the trajectory grid")
    if not np.isfinite(traj.integrability):
        raise ValueError("trajectory fails the pathwise integrability check")
    sums = _PathSums(spec, noise)
    sums(0, slice(0, 1), traj.states[:, None, :, None])
    return _weak_residual(spec, sums.weak_terms(0), epsilon, k_max)


def weak_residual_experiment(spec: EquationSpec, seed: int, dt_list,
                             epsilon: float = 0.1, k_max: int = 8,
                             scheme: str = "resolvent_implicit") -> ExperimentReport:
    """Weak residual decay across dyadic step sizes on one coupled path.

    A step size steps its path in one step_ensemble call reduced by _PathSums,
    so no trajectory is kept; within a run it is not stepped again when
    coupling kept its reductions (same spec payload, seed, step sizes and
    scheme).  PASS requires every one of the first ``k_max`` modes to decay
    with fitted order at least 0.9.  Summary: ``residuals`` (modes x step
    sizes) and ``orders`` (per mode).
    """
    dts = step_sizes(dt_list, spec.T, minimum=3)
    fine = _grid(spec.T, dts[-1])
    fine_noise = sample_noise_batch(spec.B.q, spec.marks, fine, seed, 1)
    memo = run_memo() or {}
    residuals = np.empty((k_max, len(dts)))
    for j, dt in enumerate(dts):
        terms = memo.get(_weak_key(spec, seed, fine, dt, scheme))
        if terms is None:
            noise = fine_noise.coarsen(round(dt / dts[-1]))
            sums = _PathSums(spec, noise)
            step_ensemble(noise.wiener.increments, noise.cell_counts,
                          ((spec, SchemeConfig(scheme, dt)),), sums)
            terms = sums.weak_terms(0)
        residuals[:, j] = _weak_residual(spec, terms, epsilon, k_max)
    orders = np.array([fit_order(dts, residuals[k]) for k in range(k_max)])
    rows, curves = [], {}
    for k in range(k_max):
        rows += [Record("residual", f"mode={k + 1},dt={fmt(d)}", r, 0.0)
                 for d, r in zip(dts, residuals[k])]
        rows.append(Record("order", f"mode={k + 1}", orders[k], 0.0,
                           PASS if orders[k] >= 0.9 else FAIL))
        curves.update(_log2_curve(f"mode{k + 1}", dts, residuals[k]))
    return ExperimentReport("weak_residual", tuple(rows), curves,
                            {"residuals": residuals, "orders": orders})


# ---------------------------------------------------------------------------
# Semigroup-approximation (Yosida) convergence at the trajectory level
# ---------------------------------------------------------------------------


def yosida_convergence_experiment(spec: EquationSpec, seed: int, dt: float,
                                  epsilons) -> ExperimentReport:
    """Trajectory-level regularization convergence at a fixed small step size.

    Steps the exponential scheme (the reference, group 0) and the explicit
    regularized scheme of every epsilon as the groups of one call on one path,
    whose reducer keeps each sup-norm gap to the reference only: no trajectory
    is kept.  PASS requires the gap to shrink with fitted slope in [0.9, 1.1].
    Summary: ``gaps`` (per epsilon, largest first), ``slope``.
    """
    epsilons = np.array(sorted((float(e) for e in epsilons), reverse=True))
    noise = sample_noise_batch(spec.B.q, spec.marks, _grid(spec.T, dt), seed, 1)
    gaps = np.zeros(len(epsilons))

    def reduce(node, cols, states):   # states (K, G, n, 1) of the one member
        gap = states[:, 1:, :, 0] - states[:, :1, :, 0]
        np.maximum(gaps, np.sqrt(spec.space.sq_norms(gap)).max(axis=0), out=gaps)

    groups = ((spec, SchemeConfig("exp_euler", dt)),) + tuple(
        (spec, SchemeConfig("yosida_explicit", dt, eps)) for eps in epsilons)
    step_ensemble(noise.wiener.increments, noise.cell_counts, groups, reduce)
    slope = fit_order(epsilons, gaps)
    rows = [Record("gap", f"eps={fmt(e)}", g, 0.0) for e, g in zip(epsilons, gaps)]
    rows.append(Record("slope", "-", slope, 0.0, PASS if 0.9 <= slope <= 1.1 else FAIL))
    return ExperimentReport("trotter_kato", tuple(rows),
                            _log2_curve("gap_vs_eps", epsilons, gaps),
                            {"gaps": gaps, "slope": slope})


def yosida_coupling_bound(spec: EquationSpec, u0_b, seed: int, *,
                          dt: float, epsilon: float) -> dict:
    """Pathwise energy bound for the gap of regularized coupled runs.

    For two additive-noise solutions u, v (exponential scheme), started from
    spec.u0 and u0_b, and their regularized counterparts (explicit scheme
    with A replaced by A_eps), checks along the trajectory that

      |y_eps(t)|^2 <= |y(0)|^2 + 2|eta| int |y|^2 + 2 sup|y_eps - y| int |g|

    up to a relative and absolute _BOUND_SLACK, with y = u - v, y_eps the
    regularized gap and g = F(v) - F(u); all four quantities are computed
    from the runs, the four groups of one step_ensemble call.
    """
    if not (spec.B.additive and spec.G.additive):
        raise ConfigurationError("the pathwise bound applies to additive noise only")
    grid = _grid(spec.T, dt)
    noise = sample_noise_batch(spec.B.q, spec.marks, grid, seed, 1)
    spec_b = spec.with_data(u0=u0_b)
    exact, regular = SchemeConfig("exp_euler", dt), SchemeConfig("yosida_explicit", dt, epsilon)
    u, v, ue, ve = step_ensemble(noise.wiener.increments, noise.cell_counts,
                                 ((spec, exact), (spec_b, exact),
                                  (spec, regular), (spec_b, regular)))[:, 0]
    space = spec.space
    y = u - v
    y_eps = ue - ve
    g_norm = np.sqrt(space.sq_norms(spec.F(v[:-1]) - spec.F(u[:-1])))
    y_sq = space.sq_norms(y)
    dev = np.sqrt(space.sq_norms(y_eps - y))
    cum_y2 = np.concatenate(([0.0], np.cumsum(dt * y_sq[:-1])))
    cum_g = np.concatenate(([0.0], np.cumsum(dt * g_norm)))
    sup_dev = np.maximum.accumulate(dev)
    lhs = space.sq_norms(y_eps)
    rhs = y_sq[0] + 2.0 * abs(spec.F.shift) * cum_y2 + 2.0 * sup_dev * cum_g
    ok = bool(np.all(lhs <= rhs * (1.0 + _BOUND_SLACK) + _BOUND_SLACK))
    return {"times": grid.times.copy(), "lhs": lhs, "rhs": rhs, "ok": ok}


# ---------------------------------------------------------------------------
# One-shot checks wired into the experiment runner
# ---------------------------------------------------------------------------


def resolvent_algebra_check(A: SpectralOperator, trials: int, seed: int,
                            tol: float = 1e-9) -> ExperimentReport:
    """Randomized check of the resolvent/Yosida algebra on one operator.

    Verifies, over random (eps, x): the Yosida difference-quotient identity,
    the resolvent identity, the resolvent contraction, and the monotonicity
    of the regularized operator.
    """
    if trials < 1:
        raise ConfigurationError(f"resolvent algebra check needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    space = A.space
    dev_yosida = dev_resolvent = dev_contraction = 0.0
    min_inner = np.inf
    for _ in range(trials):
        eps = float(10.0 ** rng.uniform(-3, 0))
        delta = float(10.0 ** rng.uniform(-3, 0))
        x = rng.uniform(-1.0, 1.0, A.dim)
        jx = resolvent_apply(A, eps, x)
        ax = yosida_apply(A, eps, x)
        dev_yosida = max(dev_yosida, space.norm(ax - (x - jx) / eps))
        jdx = resolvent_apply(A, delta, x)
        lhs = jx - jdx
        rhs = (delta - eps) * resolvent_apply(A, eps, A.apply(jdx))
        dev_resolvent = max(dev_resolvent, space.norm(lhs - rhs))
        dev_contraction = max(dev_contraction, space.norm(jx) - space.norm(x))
        min_inner = min(min_inner, space.inner(ax, x))
    rows = (
        Record("yosida_identity_dev", "-", dev_yosida, 0.0, PASS if dev_yosida <= tol else FAIL),
        Record("resolvent_identity_dev", "-", dev_resolvent, 0.0,
               PASS if dev_resolvent <= tol else FAIL),
        Record("contraction_excess", "-", dev_contraction, 0.0,
               PASS if dev_contraction <= tol else FAIL),
        Record("min_monotonicity_inner", "-", min_inner, 0.0,
               PASS if min_inner >= -1e-12 else FAIL),
    )
    return ExperimentReport("resolvent_algebra", rows,
                            summary={"trials": trials})


def wiener_isometry_experiment(phi, q, grid: TimeGrid, paths: int, seed: int,
                               space: HilbertSpace) -> ExperimentReport:
    """Monte Carlo second moment of a Wiener integral over the grid against its
    closed form; PASS within a relative error of _ISOMETRY_REL_TOL."""
    phi = np.asarray(phi, dtype=float)
    values = np.einsum("mnd,pmd->pn", phi, sample_wiener_rows(q, grid, seed, paths))
    est, se = map(float, _mean_stderr(space.sq_norms(values)))
    exact = step_sq_integral(phi, q, grid, space)
    rel = abs(est - exact) / exact if exact > 0 else abs(est)
    rows = (
        Record("second_moment", f"paths={paths}", est, se),
        Record("closed_form", "-", exact, 0.0),
        Record("relative_error", "-", rel, 0.0, PASS if rel <= _ISOMETRY_REL_TOL else FAIL),
    )
    return ExperimentReport("wiener_isometry", rows,
                            summary={"relative_error": rel})


# Monte Carlo jump paths are reduced this many at a time, which bounds the
# (jumps x n) temporaries of a reduction.
_JUMP_BLOCK = 500


def _jump_path_blocks(marks: MarkSpace, horizon: float, seed: int, paths: int):
    """(slice, table) for consecutive blocks of members of one jump table."""
    table = sample_jump_table(marks, horizon, seed, paths)
    for start in range(0, paths, _JUMP_BLOCK):
        block = slice(start, min(start + _JUMP_BLOCK, paths))
        yield block, table.rows(block.start, block.stop)


def poisson_isometry_experiment(g, marks: MarkSpace, grid: TimeGrid, paths: int, seed: int,
                                space: HilbertSpace) -> ExperimentReport:
    """Second moment of a compensated jump integral over the grid against its
    closed form, within a relative error of _ISOMETRY_REL_TOL.

    Also checks the martingale property: the sample mean of the compensated
    integral must vanish within three standard errors, componentwise.
    """
    g = np.asarray(g, dtype=float)
    values = np.empty((paths, g.shape[1]))
    for block, jump_paths in _jump_path_blocks(marks, grid.horizon, seed, paths):
        values[block] = poisson_integral(g, jump_paths, marks, grid)
    est, se = map(float, _mean_stderr(space.sq_norms(values)))
    exact = step_sq_integral(g, marks.weight_array, grid, space)
    rel = abs(est - exact) / exact if exact > 0 else abs(est)
    # martingale check on one scalar functional (the component sum), a single
    # three-standard-error test rather than a multiplicity-inflated family
    proj_mean, proj_se = map(float, _mean_stderr(values.sum(axis=1)))
    zero_ok = abs(proj_mean) <= (3.0 * proj_se if proj_se > 0 else 1e-12)
    rows = (
        Record("second_moment", f"paths={paths}", est, se),
        Record("closed_form", "-", exact, 0.0),
        Record("relative_error", "-", rel, 0.0, PASS if rel <= _ISOMETRY_REL_TOL else FAIL),
        Record("mean_projection", "-", proj_mean, proj_se, PASS if zero_ok else FAIL),
    )
    return ExperimentReport("poisson_isometry", rows,
                            summary={"relative_error": rel})


def compensator_experiment(D, marks: MarkSpace, grid: TimeGrid, paths: int, seed: int,
                           space: HilbertSpace) -> ExperimentReport:
    """Paired test that the realized jump sum of |D|^2 over the grid matches its compensator."""
    D = np.asarray(D, dtype=float)
    comp = step_sq_integral(D, marks.weight_array, grid, space)
    diffs = np.empty(paths)
    for block, jump_paths in _jump_path_blocks(marks, grid.horizon, seed, paths):
        diffs[block] = quadratic_mark_sum(D, jump_paths, marks, grid, space) - comp
    mean, se = map(float, _mean_stderr(diffs))
    ok = abs(mean) <= 3.0 * se if se > 0 else abs(mean) <= 1e-12
    rows = (Record("mean_difference", f"paths={paths}", mean, se, PASS if ok else FAIL),)
    return ExperimentReport("compensator", rows,
                            summary={"mean": mean, "stderr": se})


def regularization_identity_experiment(A: SpectralOperator, marks: MarkSpace, q,
                                       instances: int, seed: int, *, dt: float, T: float,
                                       epsilon: float, tol: float = 1e-9) -> ExperimentReport:
    """Max residual of the exact regularization identity over random data
    (standard normal g, C and D); instance i is solved on member i of one
    NoiseBatch; the data draw from ``data_rng(seed)``."""
    grid = _grid(T, dt)
    rng, shape = data_rng(seed), (grid.steps, A.dim)
    q = np.asarray(q, dtype=float)
    batch = sample_noise_batch(q, marks, grid, seed, instances)
    worst = {"exp_euler": 0.0, "resolvent_implicit": 0.0}
    for i in range(instances):
        g = rng.standard_normal(shape)
        C = rng.standard_normal((*shape, q.shape[0]))
        D = rng.standard_normal((*shape, marks.atom_count))
        for scheme in worst:
            worst[scheme] = max(worst[scheme], regularized_coupling_identity(
                A, g, C, D, batch.rows(i, i + 1), marks, epsilon, scheme))
    rows = tuple(Record("max_residual", f"scheme={s}", v, 0.0, PASS if v <= tol else FAIL)
                 for s, v in worst.items())
    return ExperimentReport("regularization_identity", rows, summary=dict(worst))


def energy_identity_experiment(A: SpectralOperator, marks: MarkSpace, q, dt_list,
                               T: float, paths: int, seed: int, *,
                               g_amp: float = 1.0, c_amp: float = 0.3,
                               d_amp: float = 0.3) -> ExperimentReport:
    """Mean energy-identity residual across dyadic step sizes on a fixed path family.

    The step data is drawn once on the coarsest grid and refined exactly (a
    step function is resolution-independent); paths are coupled across
    resolutions by coarsening one fine realization, and all paths are
    stepped together, one batched call per step size.  The batch is drawn in
    a nested ``shared_draws()``, whose memo is dropped when the experiment
    returns.  The data draw from
    ``data_rng(seed)``; a step size whose mean residual is exactly 0 writes no
    plot row.
    """
    dts = step_sizes(dt_list, T, minimum=3)
    q = np.asarray(q, dtype=float)
    rng, shape = data_rng(seed), (round(T / dts[0]), A.dim)
    g0 = g_amp * rng.standard_normal(shape)
    c0 = c_amp * rng.standard_normal((*shape, q.shape[0]))
    d0 = d_amp * rng.standard_normal((*shape, marks.atom_count))
    residuals = np.empty((len(dts), paths))
    with shared_draws():   # a memo of its own: the run's memo never holds this batch
        noise = sample_noise_batch(q, marks, TimeGrid(T, round(T / dts[-1])), seed, paths)
        for j, dt in enumerate(dts):
            g, C, D = (np.repeat(x, round(dts[0] / dt), axis=0) for x in (g0, c0, d0))
            residuals[j] = ito_energy_residual(A, g, C, D, noise.coarsen(round(dt / dts[-1])),
                                               marks)
    mean_res, se_res = _mean_stderr(residuals, axis=1)
    order = fit_order(np.array(dts), mean_res)
    rows = [Record("residual", f"dt={fmt(d)}", r, s)
            for d, r, s in zip(dts, mean_res, se_res)]
    rows.append(Record("order", "-", order, 0.0, PASS if order >= 0.9 else FAIL))
    return ExperimentReport("energy_identity", tuple(rows),
                            _log2_curve("residual_vs_dt", dts, mean_res, se_res),
                            {"order": order})
