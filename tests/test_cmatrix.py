import numpy as np
import pytest

from mecrl import cmatrix
from conftest import random_channel


def cmat(rows):
    return np.array(rows, dtype=np.complex128)


class TestInvertHpd:
    def test_identity(self):
        assert np.allclose(cmatrix.invert_hpd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = cmatrix.invert_hpd(np.diag([2.0, 4.0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_2x2_closed_form(self):
        a = cmat([[2, 1j], [-1j, 2]])
        expected = cmat([[2, -1j], [1j, 2]]) / 3.0
        assert np.allclose(cmatrix.invert_hpd(a), expected, atol=1e-12)

    def test_matches_numpy_inverse(self, rng):
        for _ in range(50):
            h = random_channel(rng, 6, 4)
            gram = h.conj().T @ h
            ours = cmatrix.invert_hpd(gram)
            assert np.allclose(ours, np.linalg.inv(gram), atol=1e-9)

    def test_inverse_of_inverse(self, rng):
        for _ in range(20):
            h = random_channel(rng, 8, 3)
            gram = h.conj().T @ h + 0.5 * np.eye(3)
            twice = cmatrix.invert_hpd(cmatrix.invert_hpd(gram))
            assert np.max(np.abs(twice - gram)) < 1e-8

    def test_product_with_input_is_identity(self, rng):
        for _ in range(20):
            h = random_channel(rng, 5, 3)
            gram = h.conj().T @ h
            assert np.max(np.abs(cmatrix.invert_hpd(gram) @ gram - np.eye(3))) < 1e-9

    def test_not_hermitian(self):
        with pytest.raises(cmatrix.NotHermitianError):
            cmatrix.invert_hpd(cmat([[1, 1], [0, 1]]))

    def test_singular(self):
        a = cmat([[1, 1], [1, 1]])
        with pytest.raises(cmatrix.SingularMatrixError):
            cmatrix.invert_hpd(a)

    def test_indefinite_is_singular_not_linalg_error(self):
        # Eigenvalues 3 and -1: the factorization itself fails.
        with pytest.raises(cmatrix.SingularMatrixError) as info:
            cmatrix.invert_hpd(cmat([[1, 2], [2, 1]]))
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_pivot_below_threshold(self):
        # Positive definite, so the factorization succeeds, but the second
        # pivot is under PIVOT_RTOL times the largest diagonal entry.
        with pytest.raises(cmatrix.SingularMatrixError, match="row 1"):
            cmatrix.invert_hpd(cmat([[1, 0], [0, 1e-13]]))

    def test_not_square(self):
        with pytest.raises(cmatrix.DimensionError):
            cmatrix.invert_hpd(np.ones((2, 3), dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            cmatrix.invert_hpd(cmat([[np.nan]]))
