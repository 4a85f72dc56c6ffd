from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pweno.weights import (
    OptimalWeights,
    WeightError,
    classical_optimal_general,
    weight_pair_general,
)
from reference import (
    classical_optimal_midpoint,
    lagrange_eval_1d,
    midpoint_weight_pair,
    tensor_weight,
)


class TestPairWeights:
    def test_uniform_midpoint_values(self):
        w = np.arange(6.0)  # r = 3, central cell (2, 3]
        p = weight_pair_general(w, l=4, j=0, x_star=2.5)
        assert (p.c_keep, p.c_shift) == (0.5, 0.5)
        p = weight_pair_general(w, l=3, j=0, x_star=2.5)
        assert (p.c_keep, p.c_shift) == (0.375, 0.625)

    def test_off_midpoint(self):
        w = np.arange(6.0)
        p = weight_pair_general(w, l=4, j=0, x_star=2.2)
        assert p.c_keep == pytest.approx(0.56)
        assert p.c_shift == pytest.approx(0.44)

    def test_midpoint_closed_form_matches_general(self):
        for r in range(2, 6):
            w = np.arange(2.0 * r)
            mid = r - 0.5
            for l in range(r, 2 * r - 1):
                for k in range(0, 2 * r - 1 - l):
                    a = midpoint_weight_pair(r, l, k)
                    b = weight_pair_general(w, l, k, mid)
                    assert a.c_keep == pytest.approx(b.c_keep, abs=1e-14)
                    assert a.c_shift == pytest.approx(b.c_shift, abs=1e-14)

    def test_known_midpoint_value(self):
        p = midpoint_weight_pair(3, 3, 1)
        assert (p.c_keep, p.c_shift) == (0.625, 0.375)

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
                    p = weight_pair_general(w, l, j, x)
                    assert 0.0 < p.c_keep < 1.0
                    assert 0.0 < p.c_shift < 1.0
                    assert p.c_keep + p.c_shift == pytest.approx(1.0, abs=1e-15)

    def test_partition_of_unity_exact(self):
        # rational window: exact arithmetic replicates the formula
        w = [Fraction(k, 3) for k in range(6)]
        x = Fraction(5, 6) + Fraction(2, 3)  # inside (w[2], w[3]]
        c = Fraction(x - w[0 + 4 + 1], w[0] - w[0 + 4 + 1])
        got = weight_pair_general([float(v) for v in w], 4, 0, float(x))
        assert got.c_keep == pytest.approx(float(c), abs=1e-15)
        assert got.c_shift == pytest.approx(float(1 - c), abs=1e-15)

    def test_level_and_index_validation(self):
        w = np.arange(6.0)
        with pytest.raises(WeightError):
            weight_pair_general(w, l=2, j=0, x_star=2.5)   # l < r
        with pytest.raises(WeightError):
            weight_pair_general(w, l=5, j=0, x_star=2.5)   # l > 2r-2
        with pytest.raises(WeightError):
            weight_pair_general(w, l=4, j=1, x_star=2.5)   # j > 2r-2-l
        with pytest.raises(WeightError):
            weight_pair_general(np.arange(5.0), l=3, j=0, x_star=2.5)  # odd window
        with pytest.raises(WeightError):
            midpoint_weight_pair(3, 5, 0)


class TestOptimalWeights:
    def test_midpoint_closed_form(self):
        c = classical_optimal_midpoint(3).c
        np.testing.assert_allclose(c, [6 / 32, 20 / 32, 6 / 32], atol=1e-15)
        assert c.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(WeightError):
            classical_optimal_midpoint(0)

    def test_general_matches_midpoint_on_uniform(self):
        for r in range(2, 7):
            w = np.arange(2.0 * r)
            got = classical_optimal_general(w, r - 0.5).c
            want = classical_optimal_midpoint(r).c
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
                c = classical_optimal_general(w, x).c
                assert c.sum() == pytest.approx(1.0, abs=1e-12)
                parts = [lagrange_eval_1d(w[k : k + r + 1], v[k : k + r + 1], x)
                         for k in range(r)]
                full = lagrange_eval_1d(w, v, x)
                assert float(c @ parts) == pytest.approx(full, rel=1e-11, abs=1e-11)

    def test_matches_path_enumeration(self):
        # brute force: product of pair weights over every root-to-leaf path
        rng = np.random.default_rng(7)
        r = 3
        w = np.sort(rng.uniform(0, 1, 2 * r))
        x = w[r - 1] + 0.4 * (w[r] - w[r - 1])
        got = classical_optimal_general(w, x).c
        want = np.zeros(r)
        # choices: at each level l from 2r-2 down to r pick keep (0) or shift (1)
        for picks in product((0, 1), repeat=r - 1):
            weight, j = 1.0, 0
            for step, pick in enumerate(picks):
                l = 2 * r - 2 - step
                p = weight_pair_general(w, l, j, x)
                weight *= p.c_keep if pick == 0 else p.c_shift
                j += pick
            want[j] += weight
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_positive_inside_central_cell(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            r = int(rng.integers(2, 6))
            w = np.sort(rng.uniform(0, 1, 2 * r))
            if np.diff(w).min() <= 1e-6:
                continue
            x = w[r - 1] + rng.uniform(1e-6, 1.0) * (w[r] - w[r - 1])
            c = classical_optimal_general(w, x).c
            assert (c > 0).all()

    def test_window_validation(self):
        with pytest.raises(WeightError):
            classical_optimal_general(np.arange(5.0), 2.5)

    def test_read_only(self):
        c = classical_optimal_midpoint(2).c
        with pytest.raises(ValueError):
            c[0] = 9.0


def test_tensor_weight_is_product():
    assert tensor_weight((0.5, 0.25, 2.0)) == pytest.approx(0.25)
    assert tensor_weight(()) == 1.0
    assert tensor_weight([np.float64(0.3)]) == pytest.approx(0.3)


def test_optimal_weights_wrapper_freezes():
    ow = OptimalWeights(np.array([0.2, 0.8]))
    with pytest.raises(ValueError):
        ow.c[0] = 0.0
