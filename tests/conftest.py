import numpy as np
import pytest

from mildsde import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                     Nonlinearity, dirichlet_laplacian, noise)


def eigen_profile(A, amplitudes):
    """Vector with the given leading eigen-coefficients (rest zero)."""
    k = len(amplitudes)
    return A.eigenvectors[:, :k] @ np.asarray(amplitudes, dtype=float)


def make_cubic_spec(n=15, T=0.25, multiplicative=True, alpha=0.0,
                    f_coeffs=(0.0, -1.0, 0.0, 1.0), eta=1.0, decay=0.3, modes=6):
    """Double-well reaction-diffusion benchmark on the discrete Laplacian."""
    A = dirichlet_laplacian(n)
    k = np.arange(min(modes, n))
    u0 = eigen_profile(A, 0.5 * decay**k)
    q = np.array([1.0, 0.25])
    b1 = eigen_profile(A, 0.12 * decay**k)
    b2 = eigen_profile(A, 0.08 * decay**k * np.cos(k))
    b_scale = [0.05, 0.0] if multiplicative else [0.0, 0.0]
    B = DiffusionCoefficient(np.column_stack([b1, b2]), b_scale, q)
    marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
    g1 = eigen_profile(A, 0.03 * decay**k)
    g_scale = [0.02, 0.02] if multiplicative else [0.0, 0.0]
    G = JumpCoefficient(np.column_stack([g1, -g1]), g_scale, marks)
    F = Nonlinearity(f_coeffs, eta)
    return EquationSpec(A=A, F=F, B=B, G=G, u0=u0, T=T, alpha=alpha)


def make_linear_spec(n=7, T=0.5, slope=0.0, noise_amp=0.1, jump_amp=0.0, alpha=0.0):
    """Linear additive-noise equation on the discrete Laplacian."""
    A = dirichlet_laplacian(n)
    q = np.array([1.0])
    B = DiffusionCoefficient.constant(noise_amp * A.eigenvectors[:, :1], q)
    marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
    g_cols = jump_amp * np.column_stack([A.eigenvectors[:, 0], -A.eigenvectors[:, 0]])
    G = JumpCoefficient.constant(g_cols, marks)
    F = Nonlinearity.linear(slope) if slope else Nonlinearity.zero()
    u0 = eigen_profile(A, [0.8, 0.3])
    return EquationSpec(A=A, F=F, B=B, G=G, u0=u0, T=T, alpha=alpha)


@pytest.fixture(scope="session")
def cubic_spec():
    return make_cubic_spec()


@pytest.fixture(scope="session")
def linear_spec():
    return make_linear_spec()


@pytest.fixture
def draw_counts(monkeypatch):
    """Counts of the per-member draws the batch samplers make, by kind.

    Every batch member is seeded at ``noise._member_generators``; a member
    seeded from ``POISSON_SEED_OFFSET`` or above counts as a jump path.
    """
    calls = {"wiener": 0, "poisson": 0}
    seeded = noise._member_generators

    def counted(seeds):
        kind = "poisson" if seeds.start >= noise.POISSON_SEED_OFFSET else "wiener"
        for rng in seeded(seeds):
            calls[kind] += 1
            yield rng

    monkeypatch.setattr(noise, "_member_generators", counted)
    return calls
