"""Sub-stencil interpolants: the reference Lagrange evaluation and the
basis-derivative samples of pweno.smoothness.derivative_samples."""
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pweno.grid import (
    GridFunction,
    InsufficientStencilError,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
)
from pweno.smoothness import derivative_samples
from reference import lagrange_eval_1d, tensor_lagrange_eval


def derivative_matrix(nodes, order, points):
    """D[q, j]: order-th derivative (in x) of Lagrange basis j at points[q]."""
    nodes = np.asarray(nodes, dtype=np.float64)
    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    return derivative_samples(nodes[None], pts[None], 1.0)[0, order]


def lagrange_oracle(nodes, values, x):
    """Brute-force basis-product evaluation."""
    total = 0.0
    for a in range(len(nodes)):
        lam = 1.0
        for b in range(len(nodes)):
            if b != a:
                lam *= (x - nodes[b]) / (nodes[a] - nodes[b])
        total += lam * values[a]
    return total


class TestLagrangeEval:
    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for n in range(1, 9):
            nodes = np.sort(rng.uniform(-1, 1, n))
            if np.unique(nodes).size < n:
                continue
            values = rng.normal(size=n)
            x = rng.uniform(-1, 1)
            got = lagrange_eval_1d(nodes, values, x)
            assert got == pytest.approx(lagrange_oracle(nodes, values, x), abs=1e-10)

    def test_polynomial_reproduction(self):
        nodes = np.array([0.0, 0.3, 0.35, 0.8, 1.4])
        coef = np.array([2.0, -1.0, 0.5, 3.0, -2.0])
        poly = lambda x: np.polynomial.polynomial.polyval(x, coef)
        for x in (0.1, 0.5, 1.2, 2.0):   # extrapolation allowed
            assert lagrange_eval_1d(nodes, poly(nodes), x) == pytest.approx(
                poly(x), rel=1e-12, abs=1e-12)

    def test_single_node_constant(self):
        assert lagrange_eval_1d([2.0], [7.0], 10.0) == 7.0

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            lagrange_eval_1d([0.0, 0.0, 1.0], [1.0, 2.0, 3.0], 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lagrange_eval_1d([0.0, 1.0], [1.0], 0.5)

    @given(st.integers(0, 6), st.integers(0, 10_000))
    @example(degree=4, seed=4674)   # x = 0.584, nodes in [0.867, 0.909]
    @settings(max_examples=100, deadline=None)
    def test_reproduces_random_polynomials(self, degree, seed):
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.uniform(0, 1, degree + 1))
        if np.unique(nodes).size < degree + 1 or (degree > 0 and np.diff(nodes).min() < 1e-4):
            return  # skip ill-conditioned draws
        coef = rng.uniform(-2, 2, degree + 1)
        poly = lambda x: np.polynomial.polynomial.polyval(x, coef)
        x = rng.uniform(0, 1)
        got, want = lagrange_eval_1d(nodes, poly(nodes), x), poly(x)
        if nodes[0] <= x <= nodes[-1]:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        else:
            # extrapolated: rounding the samples alone moves the interpolant
            # by up to about eps * sum |l_i(x) f_i|, which can exceed 1e-9
            basis = [lagrange_oracle(nodes, e, x) for e in np.eye(degree + 1)]
            scale = np.abs(np.multiply(basis, poly(nodes))).sum() + abs(want)
            assert abs(got - want) <= 100 * np.finfo(np.float64).eps * scale


class TestTensorEval:
    def test_matches_product_oracle(self):
        rng = np.random.default_rng(4)
        gx = build_random_grid(0, 1, 12, seed=2)
        gy = build_random_grid(0, 2, 12, seed=3)
        gf = GridFunction(TensorGrid((gx, gy)), rng.normal(size=(13, 13)))
        x = (0.53, 1.1)
        got = tensor_lagrange_eval(gf, (4, 4), 4, x)
        # collapse via explicit double basis product
        nx, ny = gx.nodes[4:8], gy.nodes[4:8]
        block = gf.values[4:8, 4:8]
        ref = 0.0
        for a in range(4):
            for c in range(4):
                la = lagrange_oracle(nx, np.eye(4)[a], x[0])
                lc = lagrange_oracle(ny, np.eye(4)[c], x[1])
                ref += la * lc * block[a, c]
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_separable_polynomial_exact(self):
        gx = build_uniform_grid(0, 1, 10)
        gy = build_random_grid(0, 1, 10, seed=5)
        f = lambda x, y: (1 + 2 * x + x**3) * (2 - y + y**2)
        gf = GridFunction.from_callable(TensorGrid((gx, gy)), f)
        x = (0.43, 0.47)
        assert tensor_lagrange_eval(gf, (3, 3), 4, x) == pytest.approx(f(*x), rel=1e-12)

    def test_out_of_range_stencil(self):
        gf = GridFunction.from_callable(
            TensorGrid((build_uniform_grid(0, 1, 6),)), lambda x: x)
        with pytest.raises(InsufficientStencilError):
            tensor_lagrange_eval(gf, (-1,), 4, 0.1)

    def test_dim_mismatch(self):
        gf = GridFunction.from_callable(
            TensorGrid((build_uniform_grid(0, 1, 6),)), lambda x: x)
        with pytest.raises(ValueError):
            tensor_lagrange_eval(gf, (1,), 4, (0.5, 0.5))


class TestDerivativeMatrix:
    def test_two_point_first_derivative(self):
        D = derivative_matrix(np.array([0.0, 1.0]), 1, np.array([0.3]))
        np.testing.assert_allclose(D, [[-1.0, 1.0]], atol=1e-13)

    def test_three_point_second_derivative(self):
        D = derivative_matrix(np.array([0.0, 1.0, 2.0]), 2, np.array([0.5, 1.5]))
        np.testing.assert_allclose(D, [[1.0, -2.0, 1.0]] * 2, atol=1e-12)

    def test_monomial_reproduction(self):
        rng = np.random.default_rng(8)
        nodes = np.sort(rng.uniform(0, 1, 7))
        pts = rng.uniform(nodes[0], nodes[-1], 4)
        for order in range(1, 7):
            D = derivative_matrix(nodes, order, pts)
            for p in range(order, 7):
                samples = nodes**p
                expect = (math.factorial(p) / math.factorial(p - order)) * pts ** (p - order) \
                    if p >= order else np.zeros_like(pts)
                np.testing.assert_allclose(D @ samples, expect, rtol=1e-7, atol=1e-7)

    def test_low_monomials_annihilated(self):
        nodes = np.array([0.0, 0.2, 0.5, 1.1])
        D = derivative_matrix(nodes, 3, np.array([0.4]))
        for p in range(3):
            np.testing.assert_allclose(D @ nodes**p, [0.0], atol=1e-9)

    def test_against_symbolic_oracle(self):
        # independent route: interpolate symbolically, differentiate, evaluate
        nodes = [0.0, 0.13, 0.4, 0.58, 0.97]
        values = [1.0, -0.7, 0.3, 2.1, -1.4]
        x = sp.Symbol("x")
        poly = sp.interpolate(list(zip(nodes, values)), x)
        pts = np.array([0.2, 0.5, 0.9])
        for order in (1, 2, 3, 4):
            D = derivative_matrix(np.array(nodes), order, pts)
            got = D @ np.array(values)
            dp = sp.diff(poly, x, order)
            expect = np.array([float(dp.subs(x, p)) for p in pts])
            np.testing.assert_allclose(got, expect, rtol=1e-8, atol=1e-8)

    def test_order_zero_is_basis_value(self):
        nodes = np.array([0.0, 0.3, 1.0])
        B = derivative_matrix(nodes, 0, nodes)
        np.testing.assert_allclose(B, np.eye(3), atol=1e-12)
        B2 = derivative_matrix(nodes, 0, np.array([0.6]))
        assert B2.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance(self):
        # same stencil shape at a very different scale and offset
        base = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        pts = np.array([0.4])
        D1 = derivative_matrix(base, 2, pts)
        scale, shift = 1e-4, 37.0
        D2 = derivative_matrix(base * scale + shift, 2, pts * scale + shift)
        np.testing.assert_allclose(D2, D1 / scale**2, rtol=1e-9)
