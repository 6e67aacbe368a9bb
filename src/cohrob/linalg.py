"""Dense complex Hermitian matrix tools.

Validating constructors, the dephasing map, the l1 coherence, the
eigensolver and seeded random generation.  Matrices are numpy complex128
arrays throughout; constructors return fresh arrays and never mutate
their input.  Every spectrum in the package (density validation,
certificate and witness checks) goes through numpy's LAPACK eigensolver
via `jacobi_eigh` / `jacobi_eigvalsh`.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def as_complex(m) -> np.ndarray:
    """Return a fresh square complex128 array, rejecting non-finite entries."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_hermitian(m) -> np.ndarray:
    """Validate Hermiticity within HERMITICITY_TOL (max-norm) and return (M + M†)/2."""
    a = as_complex(m)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M†| = {dev:.3e}")
    return 0.5 * (a + a.conj().T)


def as_density(m) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, spectrum >= -1e-10.

    A matrix whose negative eigenvalues are within eigensolver roundoff,
    n * eps * lambda_max, is returned exactly as as_hermitian gives it, so
    valid input is never moved.  Larger negative eigenvalues, down to -1e-10,
    are clamped to zero and the trace renormalized.
    """
    a = as_hermitian(m)
    tr = np.trace(a).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL}")
    w, v = jacobi_eigh(a)
    if w[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    if w[0] < -a.shape[0] * np.finfo(float).eps * w[-1]:
        w = np.clip(w, 0.0, None)
        a = (v * w) @ v.conj().T
        a = 0.5 * (a + a.conj().T)
        a /= np.trace(a).real
    return a


def density_of(vec) -> np.ndarray:
    """Rank-one projector |v><v| of a unit amplitude vector (norm 1 within 1e-12)."""
    v = np.array(vec, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"amplitude vector must be one-dimensional, got shape {v.shape}")
    if v.size == 0 or not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
        raise ValueError("invalid amplitude vector")
    n2 = float(np.vdot(v, v).real)
    if abs(n2 - 1.0) > 1e-12:
        raise ValueError(f"squared norm {n2!r} is not 1 within 1e-12")
    return np.outer(v, v.conj())


def dephase(m) -> np.ndarray:
    """Diagonal part of a matrix in the fixed reference basis."""
    a = np.asarray(m, dtype=np.complex128)
    return np.diag(np.diag(a))


def l1_coherence(rho) -> float:
    """Sum of off-diagonal entry moduli (exactly zero for diagonal input)."""
    a = np.asarray(rho, dtype=np.complex128)
    off = a - np.diag(np.diag(a))
    return float(np.sum(np.abs(off)))


# -- spectral routine ---------------------------------------------------------

def jacobi_eigh(m):
    """Eigendecomposition of the Hermitian part (M + M†)/2 by LAPACK, of a
    matrix or of each matrix in a stack shaped (..., n, n).

    Returns (w, V) with eigenvalues ascending and M ~= V diag(w) V†.  The
    explicit symmetrization matters: numpy's eigh reads only one triangle.
    This is the package's one eigensolver; the name is kept for callers
    that look it up by attribute.
    """
    a = np.asarray(m, dtype=np.complex128)
    return np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))


def jacobi_eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (M + M†)/2 by LAPACK, of a
    matrix or of each matrix in a stack shaped (..., n, n)."""
    a = np.asarray(m, dtype=np.complex128)
    return np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2)))


# -- seeded random generation -------------------------------------------------

def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary from a QR-corrected Gaussian matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph.conj()


def random_pure(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_state(d: int, rank: int | None = None, seed: int = 0) -> np.ndarray:
    """Random density matrix G G† / Tr with a d x rank Gaussian factor."""
    rank = d if rank is None else rank
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in 1..{d}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


# -- named states --------------------------------------------------------------

def basis_projector(d: int, j: int) -> np.ndarray:
    p = np.zeros((d, d), dtype=np.complex128)
    p[j, j] = 1.0
    return p


def maximally_coherent_state(d: int) -> np.ndarray:
    """Projector onto the uniform-superposition unit vector."""
    v = np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128)
    return np.outer(v, v.conj())


def minimal_roc_mixture(d: int, p: float) -> np.ndarray:
    """Mixture (1+p) I/d - p |u><u| with u the uniform superposition.

    Valid for 0 <= p <= 1/(d-1); its robustness of coherence equals p while
    its off-diagonal l1 norm equals p (d - 1), saturating the dimensional
    lower bound.
    """
    if not 0.0 <= p <= 1.0 / (d - 1) + 1e-15:
        raise ValueError(f"p={p} outside [0, 1/(d-1)] for d={d}")
    rho = (1.0 + p) * np.eye(d, dtype=np.complex128) / d - p * maximally_coherent_state(d)
    return 0.5 * (rho + rho.conj().T)
