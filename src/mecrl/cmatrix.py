"""Checked inverse of the Gram matrix on the zero-forcing detection path.

Matrices are plain ``complex128`` numpy arrays. :func:`invert_hpd` validates
its input (finite, square, Hermitian, positive definite to working
precision) and inverts it through numpy's LAPACK bindings; the errors it
raises name which of these conditions failed.
"""

from __future__ import annotations

import numpy as np

# Elementwise symmetry tolerance accepted by invert_hpd.
HERMITIAN_TOL = 1e-10
# A Cholesky pivot below this fraction of the largest diagonal entry is
# treated as a rank deficiency.
PIVOT_RTOL = 1e-12


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within HERMITIAN_TOL."""


class SingularMatrixError(ValueError):
    """Matrix is singular or indefinite to working precision."""


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def invert_hpd(a) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix.

    A Cholesky factorization checks definiteness; the inverse itself comes
    from ``np.linalg.inv``. Raises :class:`DimensionError` for a matrix
    that is not square, :class:`NotHermitianError` if the input is
    asymmetric beyond HERMITIAN_TOL, and :class:`SingularMatrixError` when
    the factorization fails or a pivot falls below PIVOT_RTOL times the
    largest diagonal entry.
    """
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix is not square: {a.shape}")
    if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is not positive definite") from exc
    # The pivots are the squared diagonal entries of the factor.
    root = low.diagonal().real
    i = int(root.argmin())
    pivot = float(root[i]) ** 2
    pivot_floor = PIVOT_RTOL * float(np.abs(a.diagonal()).max())
    if pivot <= pivot_floor:
        raise SingularMatrixError(
            f"pivot {pivot:.3e} at row {i} below threshold {pivot_floor:.3e}"
        )
    return np.linalg.inv(a)
