"""Driving noise: Q-Wiener increments, compound Poisson jump paths, and the
stochastic integrals of grid step processes.

Integrands are restricted to step processes on the time grid (constant on
each cell, mark-indexed for the jump part); general progressively
measurable integrands are deliberately out of scope and this restriction is
part of the contract.  Adaptedness of an integrand array is the caller's
responsibility.

Random number generation uses numpy's PCG64: member i of a batch draws the
stream of ``default_rng(seed + i)``, from one reused generator positioned at
each member's start state, hashed for all members at once in numpy arithmetic
that reproduces ``SeedSequence`` and PCG64 seeding (``sample_wiener`` and
``sample_poisson`` draw one path from ``default_rng(seed)`` itself, with the
same bits).  A path is a pure function of its integer seed, and numpy's
stream-compatibility policy pins its bits.  The hasher takes seeds in
[0, 2**128); the runner keeps run seeds in [0, 2**64) (``seed = N`` is checked
by ``cli.parse_config``, ``--seed N`` by ``cli.main``), so every member seed
stays inside it; random experiment data draw from ``data_rng(seed)``, which no
member starts.  Coupled multi-resolution experiments generate the finest path
once and coarsen it by summation, never by resampling.

Noise is passed around as a ``NoiseBatch`` of M members, and a single path is
a batch of one: a WienerPath stacks the increments (M, steps, d) of its
paths, a PoissonPath holds the jumps of its M paths in one flat table, and
the jump reductions (``jump_cell_counts``, ``poisson_integral``,
``quadratic_mark_sum``) reduce a table in one pass over all its jumps, one
row per member.

Inside ``shared_draws()``, entered once by ``cli.run``, ``sample_noise_batch``
and ``sample_jump_table`` draw each member at most once: they keep their
draws keyed on (kind, q or marks, grid or horizon, seed), serve a smaller
request by a prefix and draw only what a larger one lacks.  Outside it every
call draws afresh; the seeding contract is the same either way.  Other layers
keep run-scoped results in the same memo, ``run_memo()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import MarkSpace
from .space import HilbertSpace

__all__ = [
    "TimeGrid",
    "WienerPath",
    "PoissonPath",
    "NoiseBatch",
    "sample_wiener",
    "sample_poisson",
    "sample_wiener_rows",
    "data_rng",
    "sample_jump_table",
    "sample_noise_batch",
    "shared_draws",
    "run_memo",
    "coarsen_wiener",
    "poisson_integral",
    "quadratic_mark_sum",
    "jump_cell_counts",
    "step_q_integral",
    "step_m_integral",
    "POISSON_SEED_OFFSET",
]

# Experiments draw member k's Wiener path from seed + k and its jump path
# from seed + POISSON_SEED_OFFSET + k, keeping the two streams disjoint for
# any realistic ensemble size.
POISSON_SEED_OFFSET = 1 << 31

_NODE_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n * horizon / steps, n = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.steps + 1) * self.dt
        t.setflags(write=False)
        return t

    def node_index(self, t: float) -> int:
        """Index of the grid node equal to t; integrals do not interpolate."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.steps or abs(t - k * self.dt) > _NODE_TOL * max(self.dt, 1.0):
            raise ValueError(f"t={t} is not a node of the grid with dt={self.dt}")
        return k

    def coarsen(self, factor: int) -> "TimeGrid":
        if factor < 1 or self.steps % factor != 0:
            raise ValueError(f"cannot coarsen {self.steps} steps by factor {factor}")
        return TimeGrid(self.horizon, self.steps // factor)


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Realized increments of a Q-Wiener process on a grid.

    increments[i, n, k] ~ Normal(0, dt * q_k) for path i of M, independent
    across i, n and k; path i was drawn from seed + i.
    """

    grid: TimeGrid
    q: np.ndarray
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        if self.increments.shape[1:] != (self.grid.steps, self.q.shape[0]):
            raise ValueError(
                f"increments shape {self.increments.shape} does not match "
                f"paths x {self.grid.steps} steps x {self.q.shape[0]} modes"
            )


def _covariance(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("q must be a 1-D array of covariance weights")
    if np.any(q < 0.0):
        raise ValueError(f"covariance weights must be nonnegative, got {q}")
    return q


def sample_wiener(q, grid: TimeGrid, seed: int) -> WienerPath:
    """Draw one Q-Wiener increment path, increments (1, steps, d); deterministic in
    (q, grid, seed)."""
    q = _covariance(q).copy()
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((1, grid.steps, q.shape[0])) * np.sqrt(grid.dt * q)
    q.setflags(write=False)
    increments.setflags(write=False)
    return WienerPath(grid, q, increments, int(seed))


def coarsen_wiener(path: WienerPath, factor: int) -> WienerPath:
    """Aggregate increments onto a grid coarsened by ``factor``.

    The coarse path is the same realization: increments sum exactly, so
    coupled-resolution experiments share one underlying path.  All paths are
    coarsened in one reshape-sum.  The parent seed is retained.
    """
    factor = int(factor)
    coarse = path.grid.coarsen(factor)
    inc = path.increments.reshape(-1, coarse.steps, factor, path.q.shape[0]).sum(axis=2)
    inc.setflags(write=False)
    return WienerPath(coarse, path.q, inc, path.seed)


@dataclass(frozen=True, eq=False)
class PoissonPath:
    """Jump times in (0, horizon] with atom indices into a finite mark space.

    A table of M paths holds all their jumps in the same flat arrays: path i's
    jumps, in time order, are entries offsets[i]:offsets[i + 1], and path i
    was drawn from seed + i.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    atom_count: int
    seed: int
    offsets: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.marks.shape:
            raise ValueError("jump times and marks must have equal length")

    @property
    def count(self) -> int:
        return int(self.times.shape[0])

    @property
    def members(self) -> int:
        return self.offsets.shape[0] - 1

    def rows(self, start: int, stop: int) -> "PoissonPath":
        """The table of paths start..stop-1, sharing this table's arrays."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return PoissonPath(self.times[lo:hi], self.marks[lo:hi], self.horizon, self.atom_count,
                           self.seed + start, self.offsets[start:stop + 1] - lo)

    @classmethod
    def stack(cls, paths) -> "PoissonPath":
        """One table of the given paths and tables, in order."""
        first = paths[0]
        if any((p.horizon, p.atom_count) != (first.horizon, first.atom_count) for p in paths):
            raise ValueError("a table holds paths of one horizon and one mark space")
        sizes = np.concatenate([np.diff(p.offsets) for p in paths])
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        arrays = [np.concatenate([getattr(p, name) for p in paths]) for name in ("times", "marks")]
        for arr in (*arrays, offsets):
            arr.setflags(write=False)
        return cls(*arrays, first.horizon, first.atom_count, first.seed, offsets)


def _resolve_time_ties(times: np.ndarray, rng, horizon: float) -> np.ndarray:
    """Sort the jump times, re-drawing duplicates until all are distinct.

    Ties have probability zero but must not crash the pipeline.  Each round
    re-draws every time equal to its sorted predecessor, so the generator is
    consumed in a deterministic order, and a path without ties draws nothing.
    """
    times = np.sort(times)
    dup = times[1:] == times[:-1]
    while dup.any():
        times[1:][dup] = horizon * (1.0 - rng.random(int(dup.sum())))
        times.sort()
        dup = times[1:] == times[:-1]
    return times


def sample_poisson(marks: MarkSpace, horizon: float, seed: int) -> PoissonPath:
    """Exact compound-Poisson sampling on [0, horizon] x atoms.

    Count ~ Poisson(horizon * total_mass); times i.i.d. Uniform(0, horizon],
    sorted and de-tied; atom indices i.i.d. with probabilities m_j / mass.
    Draw order (count, times incl. re-draws, marks) is fixed for
    reproducibility.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    mass = marks.total_mass
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(horizon * mass)) if mass > 0.0 else 0
    times = horizon * (1.0 - rng.random(count))
    times = _resolve_time_ties(times, rng, horizon)
    if count:
        # Generator.choice(p=...) draws exactly this: the same atoms, and the
        # generator left in the same state, without its per-call checks of p
        idx = np.searchsorted(marks.atom_cdf, rng.random(count), side="right")
    else:
        idx = np.zeros(0, dtype=np.int64)
    offsets = np.array([0, count])
    for arr in (times, idx, offsets):
        arr.setflags(write=False)
    return PoissonPath(times, idx, float(horizon), marks.atom_count, int(seed), offsets)


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding, for many
# seeds at once: _MIX_CONSTS are the hash constants of SeedSequence's entropy
# mixing, _STATE_CONSTS those of generate_state, _PCG_MULT PCG64's multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_CHUNK = 1024  # seeds hashed per pass, which keeps the lists of 128-bit ints small


def _hash_constants(init: int, mult: int, count: int) -> list:
    """init * mult**k mod 2**32 for k = 0..count, as uint32 scalars."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return [np.uint32(c) for c in consts]


_MIX_CONSTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(value: np.ndarray, consts: list, k: int) -> np.ndarray:
    """SeedSequence's k-th hashmix of a uint32 array (wrapping uint32 arithmetic)."""
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> _XSHIFT)


def _pcg64_start_states(seeds) -> list:
    """The (state, inc) that ``np.random.PCG64(s)`` starts from, for each seed s in [0, 2**128)."""
    if len(seeds) and not (min(seeds) >= 0 and max(seeds) <= _MASK128):
        raise ValueError(f"seeds must lie in [0, 2**128), got {min(seeds)}..{max(seeds)}")
    lo = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    hi = np.array([s >> 64 for s in seeds], dtype=np.uint64)
    # the seed's uint32 words, least significant first; a shorter seed is
    # zero-padded to the pool size, which hashes as SeedSequence does
    words = [(w & _MASK32).astype(np.uint32) for w in (lo, lo >> 32, hi, hi >> 32)]
    pool = [_hashmix(w, _MIX_CONSTS, k) for k, w in enumerate(words)]
    k = len(pool)
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _MIX_CONSTS, k)
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
                k += 1
    # generate_state(4, np.uint64): eight words, paired little-endian
    out = [_hashmix(pool[i % 4], _STATE_CONSTS, i).astype(np.uint64) for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = ((out[2 * j] | out[2 * j + 1] << 32).tolist()
                                          for j in range(4))
    states = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        # pcg64_set_seed: inc = 2 * initseq + 1, two LCG steps around += initstate
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _member_generators(seeds: range):
    """One generator per seed, positioned where ``np.random.default_rng(seed)`` starts.

    The same generator is re-positioned for each seed, so a caller finishes
    with one member before it takes the next.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for start in range(0, len(seeds), _SEED_CHUNK):
        for state, inc in _pcg64_start_states(seeds[start:start + _SEED_CHUNK]):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng


def data_rng(seed: int) -> np.random.Generator:
    """The generator of an experiment's random data, ``SeedSequence(seed,
    spawn_key=(0,))``: no member seed ``seed + i`` or ``seed + 2**31 + i`` starts
    its stream, so the data are independent of every member's noise."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def sample_wiener_rows(q, grid: TimeGrid, seed: int, members: int) -> np.ndarray:
    """Stacked increments (members, steps, d) of the paths seed + i, drawn afresh.

    Row i is ``default_rng(seed + i).standard_normal((steps, d)) * sqrt(dt * q)``.
    Unlike the batch samplers it never keeps its draw in ``shared_draws``.
    """
    q = _covariance(q)
    rows = np.empty((members, grid.steps, q.shape[0]))
    for row, rng in zip(rows, _member_generators(range(seed, seed + members))):
        rng.standard_normal(out=row)
    rows *= np.sqrt(grid.dt * q)
    return rows


def _draw_jump_table(marks: MarkSpace, horizon: float, seed: int, members: int) -> PoissonPath:
    """The table of ``sample_poisson(marks, horizon, seed + i)``, i < members, in one pass.

    Each member draws its count, then 2 * count uniforms: the times, then the
    atoms, the stream of ``sample_poisson`` when its times are distinct.  A
    member with a time tie is drawn again by ``sample_poisson`` itself.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    counts = np.zeros(members, dtype=np.int64)
    uniforms = [np.zeros(0)]
    if marks.total_mass > 0.0:
        rate = horizon * marks.total_mass
        for i, rng in enumerate(_member_generators(range(seed, seed + members))):
            counts[i] = rng.poisson(rate)
            uniforms.append(rng.random(2 * counts[i]))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    owner = np.repeat(np.arange(members), counts)
    flat = np.concatenate(uniforms)
    # jump j of the table is uniform j + offsets[owner] and its atom uniform j + offsets[owner + 1]
    jump = np.arange(offsets[-1])
    times = horizon * (1.0 - flat[jump + offsets[owner]])
    times = times[np.lexsort((times, owner))]
    if jump.size:
        atoms = np.searchsorted(marks.atom_cdf, flat[jump + offsets[owner + 1]], side="right")
    else:
        atoms = np.zeros(0, dtype=np.int64)
    # the members with a tie, in order (np.unique would cost a slow first call)
    tied = owner[1:][(times[1:] == times[:-1]) & (owner[1:] == owner[:-1])]
    for i in sorted(set(tied.tolist())):
        path = sample_poisson(marks, horizon, seed + i)
        times[offsets[i]:offsets[i + 1]] = path.times
        atoms[offsets[i]:offsets[i + 1]] = path.marks
    for arr in (times, atoms, offsets):
        arr.setflags(write=False)
    return PoissonPath(times, atoms, float(horizon), marks.atom_count, int(seed), offsets)


_drawn = None  # the run's memo of batch draws, open inside shared_draws()


def run_memo() -> dict | None:
    """The memo of the open ``shared_draws()`` block (None outside one)."""
    return _drawn


@contextmanager
def shared_draws():
    """Within the block, each batch member is drawn at most once (see the module notes)."""
    global _drawn
    outer, _drawn = _drawn, {}
    try:
        yield
    finally:
        _drawn = outer


def _wiener_rows(q: np.ndarray, grid: TimeGrid, seed: int, members: int) -> np.ndarray:
    """Stacked increments (members, steps, d) of the paths seed + i."""
    key = ("wiener", q.tobytes(), grid.horizon, grid.steps, seed)
    held = None if _drawn is None else _drawn.get(key)
    have = 0 if held is None else held.shape[0]
    if have < members:
        rows = sample_wiener_rows(q, grid, seed + have, members - have)
        held = rows if held is None else np.concatenate((held, rows))
        held.setflags(write=False)
        if _drawn is not None:
            _drawn[key] = held
    return held[:members]


def sample_jump_table(marks: MarkSpace, horizon: float, seed: int, members: int) -> PoissonPath:
    """The table of the jump paths seed + POISSON_SEED_OFFSET + i, i < members."""
    if members < 1:
        raise ValueError(f"a batch needs at least one member, got {members}")
    key = ("poisson", marks.atoms, marks.weights, float(horizon), seed)
    held = None if _drawn is None else _drawn.get(key)
    have = 0 if held is None else held.members
    if have < members:
        rows = _draw_jump_table(marks, horizon, seed + POISSON_SEED_OFFSET + have, members - have)
        held = rows if held is None else PoissonPath.stack([held, rows])
        if _drawn is not None:
            _drawn[key] = held
    return held.rows(0, members)


@dataclass(frozen=True, eq=False)
class NoiseBatch:
    """The noise of ``len(batch)`` members: stacked Wiener increments and one jump table.

    A single path is a batch of one.  A batch indexes and unpacks like the
    pair (wiener, jumps).
    """

    wiener: WienerPath
    jumps: PoissonPath

    def __post_init__(self):
        if self.wiener.increments.shape[0] != self.jumps.members:
            raise ValueError(f"{self.wiener.increments.shape[0]} wiener paths but "
                             f"{self.jumps.members} jump paths")

    def __len__(self) -> int:
        return self.jumps.members

    def __getitem__(self, index):
        return (self.wiener, self.jumps)[index]

    @property
    def grid(self) -> TimeGrid:
        return self.wiener.grid

    def coarsen(self, factor: int) -> "NoiseBatch":
        """The same noise on the grid coarsened by ``factor`` (``coarsen_wiener``); the
        batch itself at factor 1."""
        return self if factor == 1 else NoiseBatch(coarsen_wiener(self.wiener, factor), self.jumps)

    def rows(self, start: int, stop: int) -> "NoiseBatch":
        """The batch of members start..stop-1, sharing this batch's arrays."""
        w = self.wiener
        return NoiseBatch(WienerPath(w.grid, w.q, w.increments[start:stop], w.seed + start),
                          self.jumps.rows(start, stop))

    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Per-cell jump counts (M, steps, J) on the batch's grid, binned once per batch
        (``jump_cell_counts``: exact whole numbers in float32)."""
        counts = jump_cell_counts(self.jumps, self.grid)
        counts.setflags(write=False)
        return counts


def sample_noise_batch(q, marks: MarkSpace, grid: TimeGrid, seed: int, members: int) -> NoiseBatch:
    """The noise of ``members`` independent ensemble members on ``grid``.

    Member i draws its Wiener path from seed + i and its jump path from
    seed + POISSON_SEED_OFFSET + i, so a member's noise does not depend on
    the ensemble size or on the order in which members are solved.
    """
    jumps = sample_jump_table(marks, grid.horizon, seed, members)
    q = np.asarray(q, dtype=float)
    return NoiseBatch(WienerPath(grid, q, _wiener_rows(q, grid, seed, members), seed), jumps)


def _completed_jumps(path: PoissonPath, grid: TimeGrid, k: int) -> tuple:
    """(member, cell, atom) of every jump completed by node k, member by member in time order.

    A jump at s lands in the cell (t_n, t_{n+1}] containing s, and node k
    has completed the cells n < k.
    """
    cells = np.searchsorted(grid.times[1:-1], path.times, side="left")
    owner = np.repeat(np.arange(path.members), np.diff(path.offsets))
    active = cells < k
    return owner[active], cells[active], path.marks[active].astype(np.intp, copy=False)


def jump_cell_counts(path: PoissonPath, grid: TimeGrid) -> np.ndarray:
    """Per-path, per-cell, per-atom jump counts (M, steps, J); a jump at s lands
    in the cell (t_n, t_{n+1}] containing s.  The counts are whole numbers held
    exactly in float32 (up to 2**24 per cell), half the bytes of float64, and
    every product with float64 coefficients sees the same float64 values."""
    counts = np.zeros((path.members, grid.steps, path.atom_count), dtype=np.float32)
    np.add.at(counts, _completed_jumps(path, grid, grid.steps), 1.0)
    return counts


def _check_step_process(arr, grid: TimeGrid, name: str, columns: int | None = None,
                        dim: int | None = None) -> np.ndarray:
    """``arr`` as floats (steps, n, cols), n = ``dim`` and cols = ``columns`` if given."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != grid.steps or dim not in (None, arr.shape[1]):
        raise ValueError(f"{name} must have shape (steps, n, cols) with steps={grid.steps}"
                         f"{'' if dim is None else f', n={dim}'}, got {arr.shape}")
    if columns is not None and arr.shape[2] != columns:
        raise ValueError(f"{name} has {arr.shape[2]} columns, expected {columns}")
    return arr


def poisson_integral(g, path, marks: MarkSpace, grid: TimeGrid, t: float,
                     compensated: bool = True) -> np.ndarray:
    """Integral of a mark-indexed step process against the jump measure up to node t.

    The uncompensated value sums g over realized jumps (cell index, atom
    index) in time order; with ``compensated=True`` the exact cellwise
    compensator dt * sum_j m_j g[cell, :, j] is subtracted, which is
    error-free for step integrands.  The values of a table of M paths are the
    rows of an (M, n) array.
    """
    g = _check_step_process(g, grid, "g", marks.atom_count)
    if path.atom_count != marks.atom_count:
        raise ValueError("path was sampled from a different mark space")
    k = grid.node_index(t)
    owner, cells, atoms = _completed_jumps(path, grid, k)
    out = np.zeros((path.members, g.shape[1]))
    np.add.at(out, owner, g[cells, :, atoms])
    if compensated and k > 0:
        out -= grid.dt * np.einsum("mnj,j->n", g[:k], marks.weight_array)
    return out


def quadratic_mark_sum(D, path, marks: MarkSpace, grid: TimeGrid, t: float,
                       space: HilbertSpace) -> tuple:
    """Realized jump sum of |D|^2 and its exact compensator up to node t.

    Returns (sum over jumps of |D(cell, z_j)|_H^2,
             integral of |D(s, .)|_m^2 ds over completed cells); the two have
    equal expectation because the deterministic measure dt x m compensates
    the jump measure.  The jump sum is an array of M values, one per path of
    the table; the compensator does not depend on the path.
    """
    D = _check_step_process(D, grid, "D", marks.atom_count)
    k = grid.node_index(t)
    owner, cells, atoms = _completed_jumps(path, grid, k)
    cols = D[cells, :, atoms]
    jump_sq = np.zeros(path.members)
    np.add.at(jump_sq, owner, space.weight * np.einsum("jn,jn->j", cols, cols))
    comp = step_m_integral(D, marks, grid, t, space)
    return jump_sq, comp


def step_q_integral(phi, q, grid: TimeGrid, t: float, space: HilbertSpace) -> float:
    """Exact integral of |phi(s)|_Q^2 ds for a step integrand up to node t."""
    phi = _check_step_process(phi, grid, "phi")
    k = grid.node_index(t)
    if k == 0:
        return 0.0
    col_sq = space.weight * np.einsum("mnd,mnd->md", phi[:k], phi[:k])
    return float(grid.dt * np.sum(col_sq * np.asarray(q, dtype=float)))


def step_m_integral(g, marks: MarkSpace, grid: TimeGrid, t: float, space: HilbertSpace) -> float:
    """Exact integral of |g(s, .)|_m^2 ds for a step integrand up to node t."""
    g = _check_step_process(g, grid, "g", marks.atom_count)
    k = grid.node_index(t)
    if k == 0:
        return 0.0
    col_sq = space.weight * np.einsum("mnj,mnj->mj", g[:k], g[:k])
    return float(grid.dt * np.sum(col_sq * marks.weight_array))
