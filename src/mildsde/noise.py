"""Driving noise: Q-Wiener increments, compound Poisson jump paths, and the
stochastic integrals of grid step processes.

Integrands are restricted to step processes on the time grid (constant on
each cell, mark-indexed for the jump part); general progressively
measurable integrands are deliberately out of scope and this restriction is
part of the contract.  Adaptedness of an integrand array is the caller's
responsibility.

Random number generation uses numpy's ``default_rng`` (PCG64) with one
generator per path object, so every path is a pure function of its integer
seed and numpy's stream-compatibility policy pins the bits.  Coupled
multi-resolution experiments generate the finest path once and coarsen it by
summation, never by resampling.

Monte Carlo work is batched without touching the seeding: a WienerPath may
stack M paths, and the jump reductions (``jump_cell_counts``,
``poisson_integral``, ``quadratic_mark_sum``) take one PoissonPath or a list
of them, reducing a list in one pass over all its jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import EquationSpec, MarkSpace
from .space import HilbertSpace

__all__ = [
    "TimeGrid",
    "WienerPath",
    "PoissonPath",
    "sample_wiener",
    "sample_poisson",
    "sample_noise_batch",
    "coarsen_wiener",
    "ito_integral",
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

    def refine(self, factor: int) -> "TimeGrid":
        if factor < 1:
            raise ValueError(f"refinement factor must be >= 1, got {factor}")
        return TimeGrid(self.horizon, self.steps * factor)


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Realized increments of a Q-Wiener process on a grid.

    increments[n, k] ~ Normal(0, dt * q_k), independent across n and k.  A
    batch of M paths on one grid stacks them as increments[i, n, k]; member i
    was drawn from seed + i.
    """

    grid: TimeGrid
    q: np.ndarray
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        if (self.increments.ndim not in (2, 3)
                or self.increments.shape[-2:] != (self.grid.steps, self.q.shape[0])):
            raise ValueError(
                f"increments shape {self.increments.shape} does not match "
                f"{self.grid.steps} steps x {self.q.shape[0]} modes"
            )

    @property
    def modes(self) -> int:
        return self.q.shape[0]

    def cumulative(self) -> np.ndarray:
        """W at the grid nodes, shape ([M,] steps + 1, d), starting at zero."""
        lead = self.increments.shape[:-2]
        w = np.zeros(lead + (self.grid.steps + 1, self.modes))
        np.cumsum(self.increments, axis=-2, out=w[..., 1:, :])
        return w


def sample_wiener(q, grid: TimeGrid, seed: int) -> WienerPath:
    """Draw a Q-Wiener increment path; deterministic in (q, grid, seed)."""
    q = np.asarray(q, dtype=float).copy()
    if q.ndim != 1:
        raise ValueError("q must be a 1-D array of covariance weights")
    if np.any(q < 0.0):
        raise ValueError(f"covariance weights must be nonnegative, got {q}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid.steps, q.shape[0]))
    increments = z * np.sqrt(grid.dt * q)
    q.setflags(write=False)
    increments.setflags(write=False)
    return WienerPath(grid, q, increments, int(seed))


def coarsen_wiener(path: WienerPath, factor: int) -> WienerPath:
    """Aggregate increments onto a grid coarsened by ``factor``.

    The coarse path is the same realization: increments sum exactly, so
    coupled-resolution experiments share one underlying path.  A batch is
    coarsened in one reshape-sum.  The parent seed is retained.
    """
    factor = int(factor)
    coarse = path.grid.coarsen(factor)
    lead = path.increments.shape[:-2]
    inc = path.increments.reshape(lead + (coarse.steps, factor, path.modes)).sum(axis=-2)
    inc.setflags(write=False)
    return WienerPath(coarse, path.q, inc, path.seed)


@dataclass(frozen=True, eq=False)
class PoissonPath:
    """Jump times in (0, horizon] with atom indices into a finite mark space."""

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    atom_count: int
    seed: int

    def __post_init__(self):
        if self.times.shape != self.marks.shape:
            raise ValueError("jump times and marks must have equal length")

    @property
    def count(self) -> int:
        return int(self.times.shape[0])


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
    if count and mass > 0.0:
        idx = rng.choice(marks.atom_count, size=count, p=marks.weight_array / mass)
    else:
        idx = np.zeros(0, dtype=np.int64)
    times.setflags(write=False)
    idx.setflags(write=False)
    return PoissonPath(times, idx, float(horizon), marks.atom_count, int(seed))


def sample_noise_batch(spec: EquationSpec, grid: TimeGrid, seed: int, members: int) -> list:
    """(wiener, poisson) path pairs for ``members`` independent ensemble members.

    Member i draws its Wiener path from seed + i and its jump path from
    seed + POISSON_SEED_OFFSET + i, so a member's noise does not depend on
    the ensemble size or on the order in which members are solved.
    """
    return [(sample_wiener(spec.B.q, grid, seed + i),
             sample_poisson(spec.marks, spec.T, seed + POISSON_SEED_OFFSET + i))
            for i in range(members)]


def _path_list(path) -> tuple:
    """(list of paths, single): one PoissonPath is a batch of one."""
    if isinstance(path, PoissonPath):
        return [path], True
    return list(path), False


def _completed_jumps(paths: list, grid: TimeGrid, k: int) -> tuple:
    """(owner, cell, atom) of every jump completed by node k, path by path in time order.

    ``owner`` indexes ``paths``.  A jump at s lands in the cell (t_n, t_{n+1}]
    containing s, and node k has completed the cells n < k.
    """
    times = np.concatenate([p.times for p in paths])
    cells = np.searchsorted(grid.times[1:-1], times, side="left")
    owner = np.repeat(np.arange(len(paths)), [p.count for p in paths])
    atoms = np.concatenate([p.marks for p in paths]).astype(np.intp, copy=False)
    active = cells < k
    return owner[active], cells[active], atoms[active]


def jump_cell_counts(path, grid: TimeGrid) -> np.ndarray:
    """Per-cell, per-atom jump counts (steps, J); a jump at s lands in the cell (t_n, t_{n+1}] containing s.

    For a list of M paths the counts are stacked to (M, steps, J).
    """
    paths, single = _path_list(path)
    counts = np.zeros((len(paths), grid.steps, paths[0].atom_count))
    np.add.at(counts, _completed_jumps(paths, grid, grid.steps), 1.0)
    return counts[0] if single else counts


def _check_step_process(arr, grid: TimeGrid, name: str, columns: int | None = None) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != grid.steps:
        raise ValueError(f"{name} must have shape (steps, n, cols) with steps={grid.steps}, got {arr.shape}")
    if columns is not None and arr.shape[2] != columns:
        raise ValueError(f"{name} has {arr.shape[2]} columns, expected {columns}")
    return arr


def ito_integral(phi, path: WienerPath, t: float) -> np.ndarray:
    """Integral of a grid step process against the Wiener increments up to node t.

    phi has shape (steps, n, d); the value is sum over completed cells of
    phi[n] @ dW[n].  t must be a grid node.
    """
    grid = path.grid
    phi = _check_step_process(phi, grid, "phi", path.modes)
    k = grid.node_index(t)
    if k == 0:
        return np.zeros(phi.shape[1])
    return np.einsum("mnd,md->n", phi[:k], path.increments[:k])


def poisson_integral(g, path, marks: MarkSpace, grid: TimeGrid, t: float,
                     compensated: bool = True) -> np.ndarray:
    """Integral of a mark-indexed step process against the jump measure up to node t.

    The uncompensated value sums g over realized jumps (cell index, atom
    index) in time order; with ``compensated=True`` the exact cellwise
    compensator dt * sum_j m_j g[cell, :, j] is subtracted, which is
    error-free for step integrands.  ``path`` is one PoissonPath, or a list
    of M paths whose values are returned as the rows of an (M, n) array.
    """
    g = _check_step_process(g, grid, "g", marks.atom_count)
    paths, single = _path_list(path)
    if any(p.atom_count != marks.atom_count for p in paths):
        raise ValueError("path was sampled from a different mark space")
    k = grid.node_index(t)
    owner, cells, atoms = _completed_jumps(paths, grid, k)
    out = np.zeros((len(paths), g.shape[1]))
    np.add.at(out, owner, g[cells, :, atoms])
    if compensated and k > 0:
        out -= grid.dt * np.einsum("mnj,j->n", g[:k], marks.weight_array)
    return out[0] if single else out


def quadratic_mark_sum(D, path, marks: MarkSpace, grid: TimeGrid, t: float,
                       space: HilbertSpace) -> tuple:
    """Realized jump sum of |D|^2 and its exact compensator up to node t.

    Returns (sum over jumps of |D(cell, z_j)|_H^2,
             integral of |D(s, .)|_m^2 ds over completed cells); the two have
    equal expectation because the deterministic measure dt x m compensates
    the jump measure.  For a list of M paths the jump sum is an array of M
    values; the compensator does not depend on the path.
    """
    D = _check_step_process(D, grid, "D", marks.atom_count)
    paths, single = _path_list(path)
    k = grid.node_index(t)
    owner, cells, atoms = _completed_jumps(paths, grid, k)
    cols = D[cells, :, atoms]
    jump_sq = np.zeros(len(paths))
    np.add.at(jump_sq, owner, space.weight * np.einsum("jn,jn->j", cols, cols))
    comp = step_m_integral(D, marks, grid, t, space)
    return (float(jump_sq[0]) if single else jump_sq), comp


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
