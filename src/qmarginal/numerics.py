"""Dense Hermitian linear algebra kernel shared by every other module.

All matrices are numpy arrays of complex128.  Functions validate their inputs
and raise ValueError on malformed data (non-square, non-finite, asymmetric
beyond tolerance), so downstream modules can assume clean operands.
"""
from __future__ import annotations

import numpy as np

DEFAULT_HERM_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-9
TARGET_TRACE_TOL = 1e-9
TARGET_PSD_TOL = 1e-8


def _as_square(a, stacked: bool = False) -> np.ndarray:
    """a as complex, checked square and finite; stacked admits square
    matrices stacked along leading axes."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2 without any symmetry check, of one matrix or of
    every matrix stacked along leading axes."""
    a = _as_square(a, stacked=True)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def as_hermitian(a, herm_tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    """Validate that A is Hermitian up to herm_tol (relative) and symmetrize.

    The check is ||A - A^dagger||_F <= herm_tol * max(1, ||A||_F); the returned
    matrix is exactly Hermitian.
    """
    a = _as_square(a)
    asym = np.linalg.norm(a - a.conj().T)
    if asym > herm_tol * max(1.0, np.linalg.norm(a)):
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e}")
    return (a + a.conj().T) / 2


def eigenvalue_scale(w: np.ndarray) -> np.ndarray:
    """max(1, max|w|) along the last axis, 1 for an empty spectrum, kept as
    a trailing axis of length 1 so that it broadcasts against w (one
    spectrum or several stacked): the scale that the relative eigenvalue
    tolerances of this package multiply."""
    return np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True, initial=0.0))


def rank_counts(w: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The rank rule on eigenvalues w, one spectrum or several stacked: the
    count along the last axis of |w| > rank_tol * eigenvalue_scale(w)."""
    if rank_tol < 0:
        raise ValueError("rank_tol must be non-negative")
    return np.count_nonzero(np.abs(w) > rank_tol * eigenvalue_scale(w), axis=-1)


def support_mask(w: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The support rule on eigenvalues w, one spectrum or several stacked:
    w > rank_tol * eigenvalue_scale(w), entry by entry."""
    return w > rank_tol * eigenvalue_scale(w)


def check_target(a) -> np.ndarray:
    """Validate a prescribed reduced state and return it exactly Hermitian.

    It must be Hermitian (as_hermitian), have unit trace within
    TARGET_TRACE_TOL and no eigenvalue below -TARGET_PSD_TOL * max(1, max|w|).
    """
    a = as_hermitian(a)
    tr = np.trace(a)
    if abs(tr - 1.0) > TARGET_TRACE_TOL:
        raise ValueError(f"target must have unit trace, got {tr:.12g}")
    w = np.linalg.eigvalsh(a)
    scale = eigenvalue_scale(w)
    if w.min() < -TARGET_PSD_TOL * scale:
        raise ValueError(
            f"target is not positive semidefinite (min eigenvalue {w.min():.3e})")
    return a


def eig_hermitian(a, herm_tol: float = DEFAULT_HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with real eigenvalues w sorted ascending and orthonormal
    eigenvector columns v, so that a = v @ diag(w) @ v^dagger.
    """
    a = as_hermitian(a, herm_tol)
    w, v = np.linalg.eigh(a)
    return w, v


def numerical_rank(a, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count eigenvalues of Hermitian A with |w| > rank_tol * max(1, max|w|)
    (rank_counts)."""
    return int(rank_counts(np.linalg.eigvalsh(as_hermitian(a)), rank_tol))


def psd_project(a, herm_tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative eigenvalues."""
    w, v = eig_hermitian(a, herm_tol)
    w = np.clip(w, 0.0, None)
    return hermitian_part((v * w) @ v.conj().T)


def frobenius_inner(a, b) -> complex:
    """Tr(A^dagger B)."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
