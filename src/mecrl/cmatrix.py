"""Checked inverse of the Gram matrix on the zero-forcing detection path.

Matrices are plain ``complex128`` numpy arrays, alone or stacked along
leading axes. :func:`invert_hpd` validates every matrix (finite, square,
Hermitian, positive definite to working precision) and inverts them through
numpy's LAPACK bindings; the errors it raises name which of these
conditions failed, and in a stack, for which matrix.
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
    """Matrix is singular or indefinite to working precision.

    ``index`` is the stack position of the first such matrix (an int for
    one leading axis, a tuple for more), or None for a single matrix.
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 array of one or more nonempty matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionError(f"expected a nonempty matrix or stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _position(k: tuple):
    """A stack position as the errors report it: an int for one leading axis."""
    return int(k[0]) if len(k) == 1 else tuple(int(i) for i in k)


def invert_hpd(a) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix, or each one of a
    ``(..., K, K)`` stack.

    A Cholesky factorization checks definiteness; the inverse itself comes
    from ``np.linalg.inv``, which inverts a stack one matrix at a time, so
    a stacked matrix inverts bit-identically to the same matrix alone.
    Raises :class:`DimensionError` for matrices that are not square,
    :class:`NotHermitianError` if one is asymmetric beyond HERMITIAN_TOL,
    and :class:`SingularMatrixError` when a factorization fails or a pivot
    falls below PIVOT_RTOL times the largest diagonal entry of its matrix.
    In a stack, the error names the first failing matrix.
    """
    a = as_cmatrix(a)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"matrix is not square: {a.shape}")
    lead = a.shape[:-2]

    def first(bad: np.ndarray):
        """Position of the first True entry of ``bad`` (``()`` for one matrix), or None."""
        return _position(np.unravel_index(int(bad.argmax()), lead)) if bad.any() else None

    def where(k) -> str:
        return f"matrix {k}: " if lead else ""

    asym = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    k = first(asym > HERMITIAN_TOL)
    if k is not None:
        raise NotHermitianError(where(k) + "matrix is not Hermitian within tolerance")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        # A stacked factorization does not say which matrix failed.
        for k in np.ndindex(lead):
            try:
                np.linalg.cholesky(a[k])
            except np.linalg.LinAlgError:
                break
        k = _position(k)
        raise SingularMatrixError(where(k) + "matrix is not positive definite",
                                  k if lead else None) from exc
    # The pivots are the squared diagonal entries of the factor.
    root = low.diagonal(axis1=-2, axis2=-1).real
    row = root.argmin(axis=-1)
    pivot = root.min(axis=-1) ** 2
    pivot_floor = PIVOT_RTOL * np.abs(a.diagonal(axis1=-2, axis2=-1)).max(axis=-1)
    k = first(pivot <= pivot_floor)
    if k is not None:
        raise SingularMatrixError(
            where(k) + f"pivot {float(pivot[k]):.3e} at row {int(row[k])} "
            f"below threshold {float(pivot_floor[k]):.3e}", k if lead else None)
    return np.linalg.inv(a)
