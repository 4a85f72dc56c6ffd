from fractions import Fraction

import numpy as np
import pytest

from pweno.weights import _pair_keep
from pweno.weno import _optimal_weights
from reference import (
    classical_optimal_midpoint,
    classical_optimal_weights,
    lagrange_eval_1d,
    midpoint_weight_pair,
    tensor_weight,
)


def pair(w, l, j, x):
    """(c_keep, c_shift) of pair j at level l, from _pair_keep."""
    w = np.asarray(w, dtype=np.float64)
    c_keep = float(_pair_keep(w, x - w[l + 1:], l)[j])
    return c_keep, 1.0 - c_keep


def optimal(w, x):
    """The engine's optimal weights (r,) of one window w (2r,) at x."""
    return _optimal_weights(np.asarray(w, dtype=np.float64)[:, None], np.array([x]))[:, 0]


class TestPairWeights:
    def test_uniform_midpoint_values(self):
        w = np.arange(6.0)  # r = 3, central cell (2, 3]
        assert pair(w, 4, 0, 2.5) == (0.5, 0.5)
        assert pair(w, 3, 0, 2.5) == (0.375, 0.625)

    def test_off_midpoint(self):
        w = np.arange(6.0)
        c_keep, c_shift = pair(w, 4, 0, 2.2)
        assert c_keep == pytest.approx(0.56)
        assert c_shift == pytest.approx(0.44)

    def test_midpoint_closed_form_matches_general(self):
        for r in range(2, 6):
            w = np.arange(2.0 * r)
            mid = r - 0.5
            for l in range(r, 2 * r - 1):
                for k in range(0, 2 * r - 1 - l):
                    a = midpoint_weight_pair(r, l, k)
                    b = pair(w, l, k, mid)
                    assert a[0] == pytest.approx(b[0], abs=1e-14)
                    assert a[1] == pytest.approx(b[1], abs=1e-14)

    def test_known_midpoint_value(self):
        assert midpoint_weight_pair(3, 3, 1) == (0.625, 0.375)
        with pytest.raises(ValueError):
            midpoint_weight_pair(3, 5, 0)   # l > 2r-2

    def test_positive_inside_central_cell(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = int(rng.integers(2, 6))
            w = np.sort(rng.uniform(0, 1, 2 * r))
            if np.diff(w).min() <= 0:
                continue
            # x* in (w[r-1], w[r]]
            x = w[r - 1] + rng.uniform(1e-6, 1.0) * (w[r] - w[r - 1])
            for l in range(r, 2 * r - 1):
                for j in range(0, 2 * r - 1 - l):
                    c_keep, c_shift = pair(w, l, j, x)
                    assert 0.0 < c_keep < 1.0
                    assert 0.0 < c_shift < 1.0
                    assert c_keep + c_shift == pytest.approx(1.0, abs=1e-15)

    def test_partition_of_unity_exact(self):
        # rational window: exact arithmetic replicates the formula
        w = [Fraction(k, 3) for k in range(6)]
        x = Fraction(5, 6) + Fraction(2, 3)  # inside (w[2], w[3]]
        c = Fraction(x - w[0 + 4 + 1], w[0] - w[0 + 4 + 1])
        c_keep, c_shift = pair([float(v) for v in w], 4, 0, float(x))
        assert c_keep == pytest.approx(float(c), abs=1e-15)
        assert c_shift == pytest.approx(float(1 - c), abs=1e-15)

    def test_every_pair_of_a_level(self):
        # a level-l array has m - l entries, so m - l - 1 pairs, for any
        # trailing shape after the window axis; each is the formula to the bit
        rng = np.random.default_rng(5)
        for r in range(2, 7):
            m = 2 * r
            w = np.sort(rng.uniform(0, 1, (m, 4, 3)), axis=0)
            x = w[r - 1] + rng.uniform(0, 1, (4, 3)) * (w[r] - w[r - 1])
            for l in range(m - 1):
                got = _pair_keep(w, x - w[l + 1:], l)
                assert got.shape == (m - l - 1, 4, 3)
                for j in range(m - l - 1):
                    want = (x - w[j + l + 1]) / (w[j] - w[j + l + 1])
                    np.testing.assert_array_equal(got[j], want)


class TestOptimalWeights:
    def test_midpoint_closed_form(self):
        c = classical_optimal_midpoint(3)
        np.testing.assert_allclose(c, [6 / 32, 20 / 32, 6 / 32], atol=1e-15)
        assert c.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            classical_optimal_midpoint(0)

    def test_general_matches_midpoint_on_uniform(self):
        for r in range(2, 7):
            w = np.arange(2.0 * r)
            got = optimal(w, r - 0.5)
            want = classical_optimal_midpoint(r)
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_combines_substencils_into_full_interpolant(self):
        # sum_k C_k p^r_k(x*) == p^{2r-1}(x*) for arbitrary data
        rng = np.random.default_rng(23)
        for r in (2, 3, 4, 5):
            for _ in range(40):
                w = np.sort(rng.uniform(-1, 1, 2 * r))
                if np.diff(w).min() < 1e-3:
                    continue
                v = rng.normal(size=2 * r)
                x = w[r - 1] + rng.uniform(0, 1) * (w[r] - w[r - 1])
                c = optimal(w, x)
                assert c.sum() == pytest.approx(1.0, abs=1e-12)
                parts = [lagrange_eval_1d(w[k : k + r + 1], v[k : k + r + 1], x)
                         for k in range(r)]
                full = lagrange_eval_1d(w, v, x)
                assert float(c @ parts) == pytest.approx(full, rel=1e-11, abs=1e-11)

    def test_matches_path_enumeration(self):
        # brute force: product of pair weights over every root-to-leaf path,
        # the reference's own weights
        rng = np.random.default_rng(7)
        for r in range(2, 7):
            w = np.sort(rng.uniform(0, 1, (5, 2 * r)), axis=-1)
            x = w[:, r - 1] + 0.4 * (w[:, r] - w[:, r - 1])
            got = _optimal_weights(w.T, x).T
            want = [classical_optimal_weights(wp, xp) for wp, xp in zip(w, x)]
            np.testing.assert_allclose(got, want, atol=1e-14)
            # the classical path's all-axes form: windows (2r, n, c) of n = 3
            # axes as (2r, n c) in one call equal the per-axis calls bit for bit
            windows = np.sort(rng.uniform(0, 1, (2 * r, 3, 4)), axis=0)
            at = windows[r - 1] + rng.uniform(0, 1, (3, 4)) * (windows[r] - windows[r - 1])
            np.testing.assert_array_equal(
                _optimal_weights(windows.reshape(2 * r, -1), at.reshape(-1)).reshape(r, 3, 4),
                np.stack([_optimal_weights(windows[:, a], at[a]) for a in range(3)], axis=1))

    def test_positive_inside_central_cell(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            r = int(rng.integers(2, 6))
            w = np.sort(rng.uniform(0, 1, 2 * r))
            if np.diff(w).min() <= 1e-6:
                continue
            x = w[r - 1] + rng.uniform(1e-6, 1.0) * (w[r] - w[r - 1])
            c = optimal(w, x)
            assert (c > 0).all()


def test_tensor_weight_is_product():
    assert tensor_weight((0.5, 0.25, 2.0)) == pytest.approx(0.25)
    assert tensor_weight(()) == 1.0
    assert tensor_weight([np.float64(0.3)]) == pytest.approx(0.3)
