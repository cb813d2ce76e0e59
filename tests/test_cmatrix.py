import numpy as np
import pytest

from mecrl import cmatrix
from conftest import random_channel


def stack(*mats):
    """A (T, K, K) complex128 stack of the given matrices."""
    return np.array(mats, dtype=np.complex128)


def grams(rng, count, k, n=None, gain=1.0):
    """A (count, k, k) stack of Gram matrices of random (n, k) channels."""
    h = np.stack([random_channel(rng, n or k + 2, k, gain) for _ in range(count)])
    return h.conj().swapaxes(-1, -2) @ h


class TestInvertHpd:
    def test_identity(self):
        assert np.allclose(cmatrix.invert_hpd(stack(np.eye(3))), np.eye(3))

    def test_diagonal(self):
        out = cmatrix.invert_hpd(stack(np.diag([2.0, 4.0])))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_2x2_closed_form(self):
        a = stack([[2, 1j], [-1j, 2]])
        expected = stack([[2, -1j], [1j, 2]]) / 3.0
        assert np.allclose(cmatrix.invert_hpd(a), expected, atol=1e-12)

    def test_matches_numpy_inverse(self, rng):
        gram = grams(rng, 50, 4, n=6)
        assert np.allclose(cmatrix.invert_hpd(gram), np.linalg.inv(gram), atol=1e-9)

    def test_inverse_of_inverse(self, rng):
        gram = grams(rng, 20, 3, n=8) + 0.5 * np.eye(3)
        twice = cmatrix.invert_hpd(cmatrix.invert_hpd(gram))
        assert np.max(np.abs(twice - gram)) < 1e-8

    def test_product_with_input_is_identity(self, rng):
        gram = grams(rng, 20, 3, n=5)
        assert np.max(np.abs(cmatrix.invert_hpd(gram) @ gram - np.eye(3))) < 1e-9

    def test_large_entries_need_no_bitwise_symmetry(self, rng):
        # Gram entries near 1e12 whose upper triangle is off by rounding:
        # the factorization reads only the lower triangle, so the stack
        # inverts like its exactly Hermitian counterpart.
        gram = grams(rng, 6, 4, gain=1e12)
        lower = np.tril(gram)
        exact = lower + np.tril(gram, -1).conj().swapaxes(-1, -2)
        gram = exact + np.triu(exact, 1) * 1e-15
        assert not np.array_equal(gram, gram.conj().swapaxes(-1, -2))
        ref = np.linalg.inv(exact)
        assert np.allclose(cmatrix.invert_hpd(gram), ref, rtol=0, atol=1e-9 * np.abs(ref).max())

    def test_singular(self):
        with pytest.raises(cmatrix.SingularMatrixError):
            cmatrix.invert_hpd(stack([[1, 1], [1, 1]]))

    def test_indefinite_is_singular_not_linalg_error(self):
        # Eigenvalues 3 and -1: the factorization itself fails.
        with pytest.raises(cmatrix.SingularMatrixError) as info:
            cmatrix.invert_hpd(stack([[1, 2], [2, 1]]))
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_pivot_below_threshold(self):
        # Positive definite, so the factorization succeeds, but the second
        # pivot (about 1e-13) is under PIVOT_RTOL times its diagonal entry.
        with pytest.raises(cmatrix.SingularMatrixError, match="row 1"):
            cmatrix.invert_hpd(stack([[1, 1], [1, 1 + 1e-13]]))

    def test_pivot_floor_is_relative_to_its_row(self):
        # Two orthogonal users whose channel gains differ by 1e26: the
        # second pivot is 1e-26 of the first but all of its own diagonal
        # entry, so the matrix is well conditioned after scaling.
        a = stack(np.diag([1.0, 1e-26]))
        assert np.allclose(cmatrix.invert_hpd(a), stack(np.diag([1.0, 1e26])), rtol=1e-15, atol=0)

    def test_widely_scaled_channel_inverts(self, rng):
        # Users 1 m and 10 km from the antennas (path gains 1e-3 and 1e-15)
        # on a random full-rank channel.
        h = random_channel(rng, 4, 2) * np.sqrt([1e-3, 1e-15])
        gram = stack(h.conj().T @ h)
        ref = np.linalg.inv(gram)
        assert np.allclose(cmatrix.invert_hpd(gram), ref, rtol=1e-9, atol=0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            cmatrix.invert_hpd(stack([[np.nan]]))


class TestStack:
    def test_matches_one_matrix_at_a_time(self, rng):
        for k in (1, 2, 4, 8):
            gram = grams(rng, 12, k)
            out = cmatrix.invert_hpd(gram)
            for j in range(12):
                assert np.array_equal(out[j], cmatrix.invert_hpd(gram[j:j + 1])[0])

    def test_pivot_names_matrix_and_row(self, rng):
        gram = grams(rng, 5, 2)
        gram[3] = [[1, 1], [1, 1 + 1e-13]]
        with pytest.raises(cmatrix.SingularMatrixError, match="^matrix 3: .* row 1"):
            cmatrix.invert_hpd(gram)

    def test_rank_deficient_gram_names_matrix_and_row(self, rng):
        # A channel whose third user's column is the first user's plus a
        # 1e-7 perturbation: full rank in exact arithmetic, rank deficient
        # to working precision, however its columns are scaled.
        h = np.stack([random_channel(rng, 6, 3) for _ in range(4)])
        h[2, :, 2] = 5.0 * (h[2, :, 0] + 1e-7 * random_channel(rng, 6, 1)[:, 0])
        gram = h.conj().swapaxes(-1, -2) @ h
        with pytest.raises(cmatrix.SingularMatrixError, match="^matrix 2: pivot .* at row 2 "):
            cmatrix.invert_hpd(gram)

    def test_first_bad_matrix_is_named(self, rng):
        gram = grams(rng, 6, 2)
        gram[4] = [[1, 2], [2, 1]]
        gram[5] = [[1, 1], [1, 1]]
        with pytest.raises(cmatrix.SingularMatrixError, match="^matrix 4: matrix is not positive"):
            cmatrix.invert_hpd(gram)
