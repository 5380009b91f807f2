import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcal.refine import random_orthogonal, softmax
from fedcal.semantic import svd
from fedcal.structural import l2_normalize_rows


class TestSvd:
    def test_identity(self):
        u, sigma, vt = svd(np.eye(3))
        assert np.allclose(u, np.eye(3))
        assert np.allclose(sigma, np.ones(3))
        assert np.allclose(vt, np.eye(3))

    def test_diagonal(self):
        _, sigma, _ = svd(np.diag([3.0, 1.0]))
        assert np.allclose(sigma, [3.0, 1.0])

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4))
        u, sigma, vt = svd(m)
        rebuilt = u @ np.diag(sigma) @ vt
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel <= 1e-8

    def test_factor_orthogonality(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        u, _, vt = svd(m)
        assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-9
        assert np.abs(vt @ vt.T - np.eye(6)).max() <= 1e-9

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5))
        u1, _, vt1 = svd(m)
        u2, _, vt2 = svd(m.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(vt1, vt2)

    def test_sigma_descending_nonneg_many_seeds(self):
        # 1000 seeded random matrices up to 16x16
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 17))
            _, sigma, _ = svd(rng.standard_normal((n, n)))
            assert np.all(sigma >= 0)
            assert np.all(np.diff(sigma) <= 1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            svd(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0], 1.0), np.full(3, 1 / 3), atol=1e-12)

    def test_hand_ratio(self):
        out = softmax([np.log(2.0), 0.0], 1.0)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_temperature_flattens(self):
        out = softmax([10.0, 0.0], 1e6)
        assert np.allclose(out, [0.5, 0.5], atol=1e-4)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], -1.0)

    def test_sums_to_one_and_positive(self):
        out = softmax([100.0, -100.0, 3.0], 1.0)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-50, 50),
    )
    def test_shift_invariance(self, values, shift):
        a = softmax(values, 1.0)
        b = softmax([v + shift for v in values], 1.0)
        assert np.abs(a - b).max() <= 1e-12


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_zero_row_unchanged(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(l2_normalize_rows(row), row, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 3)) * rng.uniform(0.1, 10)
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_nonzero_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        out = l2_normalize_rows(rng.standard_normal((10, 6)))
        assert np.abs(np.linalg.norm(out, axis=1) - 1).max() <= 1e-12

    def test_equals_linalg_norm_division_bitwise(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 8)) * rng.uniform(0.01, 100, (40, 1))
        m[[5, 17]] = 0.0
        norms = np.linalg.norm(m, axis=1)
        expected = m.copy()
        expected[norms > 0] = m[norms > 0] / norms[norms > 0, None]
        assert np.array_equal(l2_normalize_rows(m), expected)

    def test_empty_input_keeps_its_shape(self):
        assert l2_normalize_rows(np.zeros((0, 5))).shape == (0, 5)

    def test_without_zero_rows_equals_linalg_norm_division_bitwise(self):
        # the unmasked division; the test above, with zero rows, the masked one
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 8)) * rng.uniform(0.01, 100, (40, 1))
        assert np.array_equal(l2_normalize_rows(m), m / np.linalg.norm(m, axis=1)[:, None])

    @pytest.mark.parametrize("zero_rows", [[], [1]])
    def test_writing_the_result_leaves_the_input(self, zero_rows):
        m = np.arange(1.0, 13.0).reshape(4, 3)
        m[zero_rows] = 0.0
        before = m.copy()
        out = l2_normalize_rows(m)
        out[...] = 7.0
        assert np.array_equal(m, before)

    def test_overflowing_squares_accepted_as_linalg_norm_division(self):
        # rows near 1e153 overflow only the total of all squares; they are
        # finite input and must pass
        m = np.random.default_rng(5).standard_normal((40, 8)) * 1e153
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(m * m, axis=None))
            expected = m / np.linalg.norm(m, axis=1)[:, None]
            assert np.array_equal(l2_normalize_rows(m), expected)

    def test_row_whose_squared_norm_overflows_rejected(self):
        # rows near 1e200 overflow their own squares: no rescale, an error
        big = np.random.default_rng(5).standard_normal((40, 8)) * 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError,
                               match="m holds a row whose squared norm overflows"):
                l2_normalize_rows(big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.ones((3, 4))
        m[1, 2] = bad
        with pytest.raises(ValueError, match="m contains non-finite entries"):
            l2_normalize_rows(m)


class TestRandomOrthogonal:
    def test_dimension_one_sign(self):
        assert np.allclose(random_orthogonal(1, 0), [[1.0]])
        assert np.allclose(random_orthogonal(1, 12345), [[1.0]])

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_orthogonality(self, d):
        q = random_orthogonal(d, seed=d)
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(random_orthogonal(8, 99), random_orthogonal(8, 99))

    def test_different_seeds_differ(self):
        assert not np.allclose(random_orthogonal(4, 1), random_orthogonal(4, 2))
