"""Finite-dimensional Hilbert space and monotone-operator calculus.

Everything here is a spectral-truncation model: an operator is given by an
orthonormal eigenbasis (orthonormal in the weighted inner product) together
with nonnegative eigenvalues.  Resolvents, Yosida regularizations and the
semigroup are then exact diagonal operations, which isolates time-stepping
error from any operator-approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "HilbertSpace",
    "SpectralOperator",
    "dirichlet_laplacian",
    "resolvent_apply",
    "yosida_apply",
]

_ORTHO_TOL = 1e-10
_EIG_FLOOR = -1e-12


@dataclass(frozen=True)
class HilbertSpace:
    """R^n with the weighted inner product <u, v> = weight * sum_i u_i v_i.

    With ``weight = 1/(n+1)`` the norm approximates the L2(0, 1) norm of a
    function sampled on the interior mesh of width h = weight.
    """

    dim: int
    weight: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space dimension must be >= 1, got {self.dim}")
        if not self.weight > 0.0:
            raise ValueError(f"inner-product weight must be positive, got {self.weight}")

    def element(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected vector(s) of dimension {self.dim}, got shape {x.shape}")
        return x

    def inner(self, u, v) -> float:
        u = self.element(u)
        v = self.element(v)
        return float(self.weight * np.dot(u, v))

    def norm(self, u) -> float:
        u = self.element(u)
        return float(np.sqrt(self.weight * np.dot(u, u)))

    def sq_norms(self, states) -> np.ndarray:
        """Weighted squared norms along the last axis (batch friendly)."""
        states = np.asarray(states, dtype=float)
        return self.weight * np.einsum("...i,...i->...", states, states)


class SpectralOperator:
    """Nonnegative self-adjoint operator given by its eigendecomposition.

    Parameters
    ----------
    eigenvalues : array_like, shape (n,)
        Nonnegative eigenvalues.
    eigenvectors : array_like, shape (n, n)
        Columns are the eigenvectors, orthonormal in the weighted inner
        product of ``space``.
    space : HilbertSpace

    Every constructor checks both (ValueError otherwise), ``scaled`` included.
    The operator acts as ``x -> V diag(lam) c(x)`` where ``c(x)`` are the
    eigenbasis coordinates ``weight * V^T x``.  Being self-adjoint, the
    operator equals its adjoint and shares its eigenbasis with all the
    derived diagonal calculus (resolvents, Yosida maps, the semigroup).
    """

    def __init__(self, eigenvalues, eigenvectors, space: HilbertSpace):
        lam = np.array(eigenvalues, dtype=float)
        vecs = np.array(eigenvectors, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be a 1-D array")
        n = lam.shape[0]
        if vecs.shape != (n, n):
            raise ValueError(f"eigenvector matrix must be {n}x{n}, got {vecs.shape}")
        if space.dim != n:
            raise ValueError(f"space dimension {space.dim} does not match {n} eigenpairs")
        if lam.min(initial=0.0) < _EIG_FLOOR:
            raise ValueError(f"operator is not monotone: smallest eigenvalue {lam.min()}")
        gram = space.weight * (vecs.T @ vecs)
        defect = np.abs(gram - np.eye(n)).max()
        if defect > _ORTHO_TOL:
            raise ValueError(
                "eigenvector columns are not orthonormal in the weighted "
                f"inner product (Gram defect {defect:.3e})"
            )
        np.clip(lam, 0.0, None, out=lam)
        lam.setflags(write=False)
        vecs.setflags(write=False)
        self.eigenvalues = lam
        self.eigenvectors = vecs
        self.space = space

    @classmethod
    def diagonal(cls, eigenvalues, weight: float = 1.0) -> "SpectralOperator":
        """Operator diagonal in the standard basis (scaled to unit weighted norm)."""
        lam = np.asarray(eigenvalues, dtype=float)
        n = lam.shape[0]
        vecs = np.eye(n) / np.sqrt(weight)
        return cls(lam, vecs, HilbertSpace(n, weight))

    @property
    def dim(self) -> int:
        return self.space.dim

    def _synthesis(self, factors) -> np.ndarray:   # dense V diag(factors) (weight V^T)
        return (self.eigenvectors * factors) @ (self.space.weight * self.eigenvectors.T)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense coordinate representation V diag(lam) (weight V^T)."""
        return self._synthesis(self.eigenvalues)

    def coords(self, x) -> np.ndarray:
        """Eigenbasis coordinates <x, e_k>; batched over leading axes."""
        return self.space.weight * (self.space.element(x) @ self.eigenvectors)

    def synthesize(self, c) -> np.ndarray:
        return np.asarray(c, dtype=float) @ self.eigenvectors.T

    def apply(self, x) -> np.ndarray:
        return self.synthesize(self.eigenvalues * self.coords(x))

    def scaled(self, factor: float) -> "SpectralOperator":
        """Same eigenbasis with eigenvalues multiplied by ``factor`` (> 0)."""
        if not factor > 0.0:
            raise ValueError(f"scaling factor must be positive, got {factor}")
        return SpectralOperator(factor * self.eigenvalues, self.eigenvectors, self.space)

    def resolvent_factors(self, epsilon: float) -> np.ndarray:
        return 1.0 / (1.0 + epsilon * self.eigenvalues)

    def yosida_factors(self, epsilon: float) -> np.ndarray:
        return self.eigenvalues / (1.0 + epsilon * self.eigenvalues)

    def semigroup_factors(self, t: float) -> np.ndarray:
        return np.exp(-t * self.eigenvalues)

    def resolvent_matrix(self, epsilon: float) -> np.ndarray:
        """Dense (I + eps A)^(-1); symmetric, handy for mollifying stacked data."""
        _check_epsilon(epsilon)
        return self._synthesis(self.resolvent_factors(epsilon))

    def semigroup_matrix(self, t: float) -> np.ndarray:
        """Dense exp(-t A)."""
        return self._synthesis(self.semigroup_factors(t))

    def explicit_rates(self, dt: float, epsilon: float) -> np.ndarray:
        """The eigenvalues of A_eps (of A itself at epsilon = 0) if an explicit Euler
        step of size dt is stable for them (dt * lam_max < 2), else ConfigurationError."""
        rates = self.yosida_factors(epsilon)
        peak = dt * float(rates.max())
        if peak >= 2.0:
            expr, given = ("dt*lam_max", f"dt={dt}") if epsilon == 0 else (
                "dt*lam_max/(1+eps*lam_max)", f"dt={dt}, eps={epsilon}")
            raise ConfigurationError(f"explicit Euler unstable: {expr} = {peak:.3g} >= 2 ({given})")
        return rates

    def explicit_matrix(self, dt: float, epsilon: float) -> np.ndarray:
        """Dense I - dt A_eps, the explicit Euler step map (explicit_rates checks it)."""
        V, w = self.eigenvectors, self.space.weight
        return np.eye(self.dim) - dt * (V * self.explicit_rates(dt, epsilon)) @ (w * V.T)

    def __repr__(self):
        return (
            f"SpectralOperator(dim={self.dim}, weight={self.space.weight:g}, "
            f"lambda in [{self.eigenvalues.min():g}, {self.eigenvalues.max():g}])"
        )


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError(f"regularization parameter must be positive, got {epsilon}")
    return epsilon


def resolvent_apply(A: SpectralOperator, epsilon: float, x) -> np.ndarray:
    """Apply (I + eps A)^(-1): scales the k-th eigencomponent by 1/(1 + eps lam_k).

    A contraction for every eps > 0.
    """
    epsilon = _check_epsilon(epsilon)
    return A.synthesize(A.resolvent_factors(epsilon) * A.coords(x))


def yosida_apply(A: SpectralOperator, epsilon: float, x) -> np.ndarray:
    """Apply the bounded monotone surrogate A (I + eps A)^(-1).

    Satisfies the algebraic identity A_eps x = (x - (I + eps A)^(-1) x)/eps
    and converges to A x as eps -> 0 on the domain.
    """
    epsilon = _check_epsilon(epsilon)
    return A.synthesize(A.yosida_factors(epsilon) * A.coords(x))


def dirichlet_laplacian(n: int) -> SpectralOperator:
    """The 1-D discrete Laplacian (1/h^2) tridiag(-1, 2, -1) on n interior nodes.

    Mesh width h = 1/(n+1).  Eigenpairs are exact discrete sines:
    lam_k = (4/h^2) sin(k pi h / 2)^2 with eigenvectors
    (e_k)_i = sqrt(2) sin(k pi i h), orthonormal in the h-weighted inner
    product.  Eigenvalues are strictly positive and strictly increasing.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"number of interior nodes must be >= 1, got {n}")
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    lam = (4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2
    i = np.arange(1, n + 1)
    vecs = np.sqrt(2.0) * np.sin(np.pi * h * np.outer(i, k))
    return SpectralOperator(lam, vecs, HilbertSpace(n, h))
