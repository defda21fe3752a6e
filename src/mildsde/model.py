"""Equation data and structural hypothesis checks.

Holds the drift nonlinearity, the Wiener and jump noise coefficients, the
assembled equation data, and randomized checkers for the two structural
hypotheses everything downstream rests on: shifted monotonicity of the
drift, and the dissipativity inequality coupling drift gain against
noise-coefficient differences.  Checkers report sampled margins; they never
silently assume a hypothesis holds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import HilbertSpace, SpectralOperator

__all__ = [
    "Nonlinearity",
    "DiffusionCoefficient",
    "JumpCoefficient",
    "MarkSpace",
    "EquationSpec",
    "MarginReport",
    "check_shifted_monotonicity",
    "check_dissipativity_triplet",
    "q_norm",
    "m_norm",
]

_DEGENERATE_PAIR = 1e-14


@dataclass(frozen=True)
class Nonlinearity:
    """Componentwise polynomial drift f(r) = sum_p coefficients[p] * r**p.

    ``shift`` is the constant eta for which r -> f(r) + eta*r is expected to
    be monotone.  Reaction-diffusion drifts have odd top degree with positive
    leading coefficient, but nothing here enforces that; the checkers below
    certify hypotheses by sampling instead.
    """

    coefficients: tuple = ()
    shift: float = 0.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(())

    @classmethod
    def linear(cls, slope: float, shift: float = 0.0) -> "Nonlinearity":
        return cls((0.0, float(slope)), shift)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coefficients)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if not self.coefficients:
            return np.zeros_like(u)
        out = np.full_like(u, self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            out = out * u + c
        return out

    def derivative_coefficients(self) -> tuple:
        return tuple((p + 1) * c for p, c in enumerate(self.coefficients[1:]))

    def derivative(self, u):
        return Nonlinearity(self.derivative_coefficients())(u)

    def min_derivative(self, lo: float, hi: float) -> float:
        """Exact minimum of f' on [lo, hi] via the critical points of f'."""
        dcoeffs = self.derivative_coefficients()
        candidates = [lo, hi]
        if len(dcoeffs) >= 3:
            ddcoeffs = tuple((p + 1) * c for p, c in enumerate(dcoeffs[1:]))
            roots = np.polynomial.polynomial.polyroots(ddcoeffs)
            real = roots[np.abs(roots.imag) < 1e-12].real
            candidates.extend(r for r in real if lo <= r <= hi)
        fprime = Nonlinearity(dcoeffs)
        return float(min(fprime(np.array(candidates)))) if dcoeffs else 0.0


@dataclass(frozen=True)
class MarkSpace:
    """Finite atomic mark space: atoms z_j with nonnegative weights m_j.

    Total mass is finite by construction, so the associated jump measure is
    a compound Poisson process that can be simulated exactly.
    """

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(float(z) for z in self.atoms)
        weights = tuple(float(m) for m in self.weights)
        if len(atoms) != len(weights):
            raise ValueError(f"{len(atoms)} atoms but {len(weights)} weights")
        if len(atoms) == 0:
            raise ValueError("mark space needs at least one atom")
        if any(m < 0.0 for m in weights):
            raise ValueError(f"mark weights must be nonnegative, got {weights}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array(self.weights)
        w.setflags(write=False)
        return w

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

    def permuted(self, order) -> "MarkSpace":
        order = list(order)
        return MarkSpace(tuple(self.atoms[j] for j in order), tuple(self.weights[j] for j in order))


class _AffineCoefficient:
    """Noise coefficient that is affine in the state: plain (base, state_scale) data.

    Column k of the coefficient at (t, u) is base[:, k] + state_scale[k] * u,
    so the coefficient is base + u (x) state_scale and does not depend on t.
    ``weights`` are the column weights (Q for Wiener, m for jumps) and
    ``lipschitz`` is the exact Lipschitz constant of u -> coefficient in the
    column-weighted norm sqrt(sum_k weights_k |col_k|_H^2).
    """

    def __init__(self, base, state_scale, weights, cols: str):
        base = np.asarray(base, dtype=float).copy()
        scale = np.asarray(state_scale, dtype=float).copy()
        if base.ndim != 2 or scale.shape != (base.shape[1],):
            raise ValueError(f"affine coefficient needs an n x {cols} base and {cols} scales")
        if base.shape[1] != weights.shape[0]:
            raise ValueError(f"{base.shape[1]} coefficient columns but {weights.shape[0]} weights")
        base.setflags(write=False)
        scale.setflags(write=False)
        self.base = base
        self.state_scale = scale
        self.weights = weights
        self.shape = base.shape
        self.lipschitz = float(np.sqrt(np.sum(weights * scale**2)))
        self.additive = bool(np.all(scale == 0.0))

    def __call__(self, t: float, u) -> np.ndarray:
        return self.base + np.outer(u, self.state_scale)


class DiffusionCoefficient(_AffineCoefficient):
    """Wiener coefficient B(t, u) = base + u (x) state_scale, an n x d operator.

    ``q`` holds the covariance weights of the d driving Brownian modes; the
    Lipschitz constant is taken in the Q-weighted Hilbert-Schmidt norm.
    """

    def __init__(self, base, state_scale, q):
        q = np.asarray(q, dtype=float).copy()
        if q.ndim != 1:
            raise ValueError("q must be a 1-D array of covariance weights")
        if np.any(q < 0.0):
            raise ValueError(f"covariance weights must be nonnegative, got {q}")
        q.setflags(write=False)
        self.q = q
        super().__init__(base, state_scale, q, "d")

    @classmethod
    def constant(cls, base, q) -> "DiffusionCoefficient":
        return cls(base, np.zeros(np.shape(base)[-1:]), q)

    @classmethod
    def zero(cls, n: int, d: int = 1) -> "DiffusionCoefficient":
        return cls.constant(np.zeros((n, d)), np.zeros(d))


class JumpCoefficient(_AffineCoefficient):
    """Jump coefficient G(t, u, z_j) = base[:, j] + state_scale[j] * u.

    Evaluation returns the n x J matrix whose column j is G(t, u, z_j); the
    Lipschitz constant is taken in the L2(Z, m) norm.
    """

    def __init__(self, base, state_scale, marks: MarkSpace):
        self.marks = marks
        super().__init__(base, state_scale, marks.weight_array, "J")

    @classmethod
    def constant(cls, base, marks: MarkSpace) -> "JumpCoefficient":
        return cls(base, np.zeros(np.shape(base)[-1:]), marks)

    @classmethod
    def zero(cls, n: int, marks: MarkSpace | None = None) -> "JumpCoefficient":
        marks = marks if marks is not None else MarkSpace((0.0,), (0.0,))
        return cls.constant(np.zeros((n, marks.atom_count)), marks)


def q_norm(matrix, q, space: HilbertSpace) -> float:
    """Hilbert-Schmidt norm against the covariance: sqrt(sum_k q_k |col_k|_H^2)."""
    matrix = np.asarray(matrix, dtype=float)
    col_sq = space.weight * np.einsum("ik,ik->k", matrix, matrix)
    return float(np.sqrt(np.sum(np.asarray(q, dtype=float) * col_sq)))


def m_norm(matrix, marks: MarkSpace, space: HilbertSpace) -> float:
    """L2(Z, m) norm of a mark-indexed family: sqrt(sum_j m_j |col_j|_H^2)."""
    matrix = np.asarray(matrix, dtype=float)
    col_sq = space.weight * np.einsum("ij,ij->j", matrix, matrix)
    return float(np.sqrt(np.sum(marks.weight_array * col_sq)))


@dataclass(frozen=True, eq=False)
class EquationSpec:
    """Full data of the evolution equation du + Au dt + F(u) dt = B dW + G dmu_bar.

    ``alpha`` is the declared dissipativity margin of the (F, B, G) triplet;
    it is certified (on samples) by :func:`check_dissipativity_triplet`, and
    experiments that rely on it refuse to run when the sampled margin is
    negative.
    """

    A: SpectralOperator
    F: Nonlinearity
    B: DiffusionCoefficient
    G: JumpCoefficient
    u0: np.ndarray
    T: float
    alpha: float = 0.0

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float).copy()
        n = self.A.dim
        if u0.shape != (n,):
            raise ValueError(f"u0 must have dimension {n}, got shape {u0.shape}")
        if not np.isfinite(u0).all():
            raise ValueError("u0 must be finite")
        if not self.T > 0.0:
            raise ValueError(f"time horizon must be positive, got {self.T}")
        for name, coeff in (("B", self.B), ("G", self.G)):
            if coeff.shape[0] != n:
                raise ValueError(f"{name} has shape {coeff.shape}, expected {(n, coeff.shape[1])}")
        u0.setflags(write=False)
        object.__setattr__(self, "u0", u0)

    @property
    def space(self) -> HilbertSpace:
        return self.A.space

    @property
    def marks(self) -> MarkSpace:
        return self.G.marks

    def with_data(self, *, u0=None, F=None, B=None, G=None, alpha=None, T=None) -> "EquationSpec":
        return EquationSpec(
            A=self.A,
            F=self.F if F is None else F,
            B=self.B if B is None else B,
            G=self.G if G is None else G,
            u0=self.u0 if u0 is None else u0,
            T=self.T if T is None else T,
            alpha=self.alpha if alpha is None else alpha,
        )

    def fingerprint(self) -> str:
        """Short stable hash of the numeric payload."""
        hasher = hashlib.sha256()
        for arr in (self.A.eigenvalues, self.A.eigenvectors, self.u0):
            hasher.update(np.ascontiguousarray(arr).tobytes())
        hasher.update(np.array([self.space.weight, self.T, self.alpha, self.F.shift]).tobytes())
        hasher.update(np.array(self.F.coefficients).tobytes())
        for coeff in (self.B, self.G):
            for arr in (coeff.weights, coeff.base, coeff.state_scale):
                hasher.update(np.ascontiguousarray(arr).tobytes())
        hasher.update(np.array(self.G.marks.atoms).tobytes())
        return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class MarginReport:
    """Result of a randomized hypothesis check: the minimal sampled margin."""

    margin: float
    samples: int
    skipped: int
    seed: int

    @property
    def certified(self) -> bool:
        return self.margin >= 0.0


def check_shifted_monotonicity(F: Nonlinearity, eta: float, sample_count: int, seed: int,
                               *, dim: int = 8, radius: float = 5.0) -> MarginReport:
    """Sample the Rayleigh margin of u -> F(u) + eta u over random pairs.

    Returns min over pairs of [<Fu - Fv, u - v> + eta |u - v|^2] / |u - v|^2.
    The inner-product weight cancels in the ratio, so sampling is
    weight-free.  A nonnegative result certifies the hypothesis on the
    sample; pairs closer than 1e-14 are skipped as degenerate.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-radius, radius, size=(sample_count, dim))
    v = rng.uniform(-radius, radius, size=(sample_count, dim))
    diff = u - v
    den = np.einsum("ij,ij->i", diff, diff)
    keep = den > _DEGENERATE_PAIR
    num = np.einsum("ij,ij->i", F(u) - F(v), diff) + eta * den
    ratios = num[keep] / den[keep]
    margin = float(ratios.min()) if ratios.size else np.inf
    return MarginReport(margin, int(keep.sum()), int((~keep).sum()), seed)


def check_dissipativity_triplet(spec: EquationSpec, sample_count: int, seed: int,
                                *, radius: float = 3.0,
                                alpha: float | None = None) -> MarginReport:
    """Sample the dissipativity inequality of the (F, B, G) triplet.

    For random (s, u, v) computes
    [2 <Fu - Fv, u - v> - |B(s,u) - B(s,v)|_Q^2 - |G(s,u,.) - G(s,v,.)|_m^2
     - alpha |u - v|^2] / |u - v|^2
    and returns the sampled minimum.  ``alpha`` defaults to the spec's
    declared margin; pass ``alpha=0.0`` for the raw margin.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    alpha = spec.alpha if alpha is None else float(alpha)
    rng = np.random.default_rng(seed)
    n = spec.A.dim
    w = spec.space.weight
    s_vals = rng.uniform(0.0, spec.T, size=sample_count)
    u = rng.uniform(-radius, radius, size=(sample_count, n))
    v = rng.uniform(-radius, radius, size=(sample_count, n))
    diff = u - v
    den = w * np.einsum("ij,ij->i", diff, diff)
    drift_gain = 2.0 * w * np.einsum("ij,ij->i", spec.F(u) - spec.F(v), diff)
    margin = np.inf
    used = skipped = 0
    for i in range(sample_count):
        if den[i] <= _DEGENERATE_PAIR:
            skipped += 1
            continue
        db = spec.B(s_vals[i], u[i]) - spec.B(s_vals[i], v[i])
        dg = spec.G(s_vals[i], u[i]) - spec.G(s_vals[i], v[i])
        lhs = drift_gain[i] - q_norm(db, spec.B.q, spec.space) ** 2 \
            - m_norm(dg, spec.marks, spec.space) ** 2
        margin = min(margin, (lhs - alpha * den[i]) / den[i])
        used += 1
    return MarginReport(float(margin), used, skipped, seed)
