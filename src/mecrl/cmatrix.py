"""Checked inverse of the episode's Gram matrices on the zero-forcing
detection path.

:func:`invert_hpd` takes the one shape the simulator forms: a ``(T, K, K)``
complex128 stack of Gram matrices ``HᴴH``, one per slot. It checks that
every matrix is finite and positive definite to working precision, and the
error it raises names the first failing matrix.
"""

from __future__ import annotations

import numpy as np

# A Cholesky pivot below this fraction of its row's diagonal entry is
# treated as a rank deficiency. A pivot over its own diagonal entry does not
# change when a user's channel is scaled, so users whose path gains differ
# by many orders of magnitude do not make a full-rank channel fail.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """A matrix of the stack is singular or indefinite to working precision.

    The message names the stack position of the first such matrix. It is a
    ValueError, so the command line reports it as one error line and exits
    1, as it does a non-finite matrix.
    """


def invert_hpd(a: np.ndarray) -> np.ndarray:
    """Invert each matrix of a ``(T, K, K)`` stack of Hermitian
    positive-definite matrices.

    A Cholesky factorization checks definiteness; it reads only the lower
    triangle, so rounding in a Gram matrix's upper triangle is harmless.
    The inverse itself comes from ``np.linalg.inv``, which inverts a stack
    one matrix at a time, so a matrix inverts bit-identically in any stack.
    Raises ValueError for NaN or Inf entries (a huge path gain can overflow
    the Gram matrix) and :class:`SingularMatrixError` when a factorization
    fails or a pivot falls below PIVOT_RTOL times the diagonal entry of its
    row, naming the first failing matrix and its first failing row.
    """
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        # A stacked factorization does not say which matrix failed.
        for k, one in enumerate(a):
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                break
        raise SingularMatrixError(f"matrix {k}: matrix is not positive definite") from exc
    # The pivots are the squared diagonal entries of the factor.
    root = low.diagonal(axis1=-2, axis2=-1).real
    pivot = root * root
    pivot_floor = PIVOT_RTOL * a.diagonal(axis1=-2, axis2=-1).real
    bad = pivot <= pivot_floor
    if bad.any():
        k, row = divmod(int(bad.argmax()), bad.shape[-1])
        raise SingularMatrixError(
            f"matrix {k}: pivot {float(pivot[k, row]):.3e} at row {row} "
            f"below threshold {float(pivot_floor[k, row]):.3e}")
    return np.linalg.inv(a)
