"""Equation data and the exact dissipativity margin.

Holds the drift nonlinearity, the Wiener and jump noise coefficients, the
assembled equation data, and the one structural hypothesis everything
downstream rests on: the dissipativity inequality coupling drift gain
against noise-coefficient differences.

Margin convention: the margin of (F, B, G) for a declared alpha is the
exact infimum over u != v of

    [2 <F(u) - F(v), u - v> - |B(u) - B(v)|_Q^2 - |G(u) - G(v)|_m^2] / |u - v|^2 - alpha.

B and G are affine with state scales b_k and g_j, so the noise terms equal
L_B^2 |u - v|^2 and L_G^2 |u - v|^2 with L_B^2 = sum_k q_k b_k^2 and
L_G^2 = sum_j m_j g_j^2.  F acts componentwise, so the drift term is a
weighted mean of difference quotients of f, at least 2 inf f' and
approaching it as u -> v at the argmin of f'.  The margin is therefore
2 inf f' - L_B^2 - L_G^2 - alpha.  A nonnegative margin certifies the
hypothesis for the configured data; it is -inf when f' is unbounded below.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .space import HilbertSpace, SpectralOperator

__all__ = [
    "Nonlinearity",
    "DiffusionCoefficient",
    "JumpCoefficient",
    "MarkSpace",
    "EquationSpec",
    "check_dissipativity_triplet",
    "weighted_norm",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Componentwise polynomial drift f(r) = sum_p coefficients[p] * r**p.

    ``shift`` is the constant eta for which r -> f(r) + eta*r is expected to
    be monotone.  Reaction-diffusion drifts have odd top degree with positive
    leading coefficient, but nothing here enforces that; the margin of
    :func:`check_dissipativity_triplet` is -inf for any other drift of
    degree two or more.
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
    def linear(cls, slope: float) -> "Nonlinearity":
        return cls((0.0, float(slope)))

    @cached_property
    def _horner(self) -> tuple:   # __call__'s lead (None if c_N = 1) and (ufunc, operand) steps
        coeffs = self.coefficients
        keep_zeros = coeffs[0] == 0.0 and math.copysign(1.0, coeffs[0]) < 0.0   # c_0 = -0.0
        steps = []
        for p in range(len(coeffs) - 2, -1, -1):
            if coeffs[p] != 0.0 or p == 0 or keep_zeros:
                steps.append((np.add, np.array(coeffs[p])))
            if p:
                steps.append((np.multiply, None))   # None: the operand is u
        return None if coeffs[-1] == 1.0 else np.array(coeffs[-1]), tuple(steps)

    def __call__(self, u, out=None):
        """f(u), into ``out`` if given (an array of u's shape, not u itself: ValueError), with
        the bits of textbook Horner x = c_N, x = x u + c_p for p = N-1, ..., 0, in operations
        worked out once.  They skip the multiply by a leading c_N of exactly 1 (1 u is u) and,
        unless c_0 is -0.0, the add of a zero c_p above c_0: x + (-0.0) is x, x + 0.0 only
        turns -0.0 into +0.0, a zero's sign reaches f only through zeros (0 inf is one nan for
        either sign), and the add of a c_0 other than -0.0 gives both zeros one result."""
        if out is not None and out is u:
            raise ValueError("f(u, out=u) would overwrite u while Horner still reads it")
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u) if out is None else out
        coeffs = self.coefficients
        if len(coeffs) < 2:
            out[...] = coeffs[0] if coeffs else 0.0
            return out
        lead, steps = self._horner
        x = u if lead is None else np.multiply(u, lead, out)
        for op, c in steps:
            x = op(x, u if c is None else c, out)
        return x

    def derivative_coefficients(self) -> tuple:
        return tuple((p + 1) * c for p, c in enumerate(self.coefficients[1:]))

    def derivative(self, u):
        return Nonlinearity(self.derivative_coefficients())(u)

    def min_derivative(self) -> float:
        """Exact infimum of f' over the real line; -inf when f' is unbounded below.

        f' is bounded below iff it is constant or has even degree with a
        positive leading coefficient; then the minimum sits at a real
        critical point of f'.  Evaluating f' at the real part of every
        critical point never undershoots that minimum and needs no tolerance
        for deciding which roots are real.
        """
        dcoeffs = np.trim_zeros(np.array(self.derivative_coefficients()), "b")
        if dcoeffs.size <= 1:
            return float(dcoeffs[0]) if dcoeffs.size else 0.0
        if dcoeffs.size % 2 == 0 or dcoeffs[-1] < 0.0:
            return -np.inf
        ddcoeffs = dcoeffs[1:] * np.arange(1, dcoeffs.size)
        roots = np.roots(ddcoeffs[::-1])
        return float(self.derivative(roots.real).min())


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

    @cached_property
    def atom_cdf(self) -> np.ndarray:
        """Cumulative atom probabilities, normalized as ``Generator.choice`` does."""
        cdf = (self.weight_array / self.total_mass).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf


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


def _covariance(q) -> np.ndarray:
    """``q`` as a 1-D float array of nonnegative covariance weights (ValueError otherwise)."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("q must be a 1-D array of covariance weights")
    if np.any(q < 0.0):
        raise ValueError(f"covariance weights must be nonnegative, got {q}")
    return q


class DiffusionCoefficient(_AffineCoefficient):
    """Wiener coefficient B(t, u) = base + u (x) state_scale, an n x d operator.

    ``q`` holds the covariance weights of the d driving Brownian modes; the
    Lipschitz constant is taken in the Q-weighted Hilbert-Schmidt norm.
    """

    def __init__(self, base, state_scale, q):
        q = _covariance(q).copy()
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
    """Jump coefficient G(t, u, z_j) = base[:, j] + state_scale[j] * u, an n x J operator.

    The Lipschitz constant is taken in the L2(Z, m) norm.
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


def weighted_norm(matrix, weights, space: HilbertSpace) -> float:
    """sqrt(sum_k weights_k |col_k|_H^2): the Q-weighted Hilbert-Schmidt norm with
    the covariance weights q, the L2(Z, m) norm with the mark weights m."""
    matrix = np.asarray(matrix, dtype=float)
    col_sq = space.weight * np.einsum("ik,ik->k", matrix, matrix)
    return float(np.sqrt(np.sum(np.asarray(weights, dtype=float) * col_sq)))


@dataclass(frozen=True, eq=False)
class EquationSpec:
    """Full data of the evolution equation du + Au dt + F(u) dt = B dW + G dmu_bar.

    ``alpha`` is the declared dissipativity margin of the (F, B, G) triplet;
    :func:`check_dissipativity_triplet` computes the exact margin left over
    after alpha, and experiments that rely on alpha refuse to run when that
    margin is negative.
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

    def require_shared_frame(self, other: "EquationSpec"):
        """ConfigurationError unless ``other`` shares A, F, T, the weights q and the marks."""
        if not (np.array_equal(self.A.eigenvalues, other.A.eigenvalues)
                and np.array_equal(self.A.eigenvectors, other.A.eigenvectors)):
            raise ConfigurationError("coupled solutions require a shared operator")
        if self.F.coefficients != other.F.coefficients or self.F.shift != other.F.shift:
            raise ConfigurationError("coupled solutions require a shared drift")
        if self.T != other.T:
            raise ConfigurationError("coupled solutions require a shared horizon")
        if not np.array_equal(self.B.q, other.B.q):
            raise ConfigurationError("coupled solutions require shared covariance weights")
        if self.marks.atoms != other.marks.atoms or self.marks.weights != other.marks.weights:
            raise ConfigurationError("coupled solutions require a shared mark space")

    def payload(self) -> tuple:
        """The numeric payload, one byte string per array: an exact key of the spec."""
        arrays = [self.A.eigenvalues, self.A.eigenvectors, self.u0,
                  [self.space.weight, self.T, self.alpha, self.F.shift], self.F.coefficients]
        arrays += [a for c in (self.B, self.G) for a in (c.weights, c.base, c.state_scale)]
        arrays.append(self.G.marks.atoms)
        return tuple(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)

    def fingerprint(self) -> str:
        """Short stable hash of the numeric payload."""
        hasher = hashlib.sha256()
        for chunk in self.payload():
            hasher.update(chunk)
        return hasher.hexdigest()[:16]


def check_dissipativity_triplet(spec: EquationSpec, alpha: float | None = None) -> float:
    """Exact dissipativity margin 2 inf f' - L_B^2 - L_G^2 - alpha (module docstring).

    ``alpha`` defaults to the spec's declared margin; pass ``alpha=0.0`` for
    the raw margin.  Returns -inf when f' is unbounded below.
    """
    alpha = spec.alpha if alpha is None else float(alpha)
    return 2.0 * spec.F.min_derivative() - spec.B.lipschitz ** 2 - spec.G.lipschitz ** 2 - alpha
