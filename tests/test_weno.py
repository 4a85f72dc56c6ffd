from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pweno.batch import interpolate_batch
from pweno.grid import (
    Grid1D,
    GridFunction,
    InsufficientStencilError,
    OutOfDomainError,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
)
from pweno.weights import weight_pair_general
from pweno.weno import (
    DiagnosticsNotCaptured,
    WenoError,
    WenoParams,
    capture_diagnostics,
    interpolate_1d,
    interpolate_nd,
    nonlinear_pair,
)
from reference import reference_interpolate

METHODS = ("progressive", "classical", "linear")


def random_gf(ndim, J, seed, fn=None):
    axes = tuple(build_random_grid(0, 1, J, seed=seed + a) for a in range(ndim))
    grid = TensorGrid(axes)
    if fn is None:
        rng = np.random.default_rng(seed + 100)
        return GridFunction(grid, rng.normal(size=grid.shape))
    return GridFunction.from_callable(grid, fn)


def effective_masses(state):
    """Weight mass each base sub-stencil contributes to the final value."""
    r, n = state.r, state.ndim
    masses = {}
    for k0 in product(range(r), repeat=n):
        level = {k: 1.0 if k == k0 else 0.0 for k in product(range(r), repeat=n)}
        for l in range(r, 2 * r - 1):
            nxt = {}
            for j in product(range(2 * r - 1 - l), repeat=n):
                w = state.weights[(l, j)]
                nxt[j] = sum(
                    wv * level[tuple(a + b for a, b in zip(j, v))]
                    for v, wv in w.items()
                )
            level = nxt
        masses[k0] = level[(0,) * n]
    return masses


class TestNonlinearPair:
    def test_equal_indicators_return_linear(self):
        w, fb = nonlinear_pair([0.5, 0.5], [3.0, 3.0], eps=1e-4, t=2.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)
        assert not fb

    def test_large_indicator_suppressed(self):
        eps, t, K = 1e-6, 2.0, 10.0
        w, fb = nonlinear_pair([0.5, 0.5], [0.0, K], eps, t)
        assert w[0] > 1 - 1e-10
        assert w[1] <= 2 * (eps / K) ** t
        assert not fb

    def test_zero_linear_weight_stays_zero(self):
        w, _ = nonlinear_pair([0.0, 1.0], [5.0, 1.0], eps=1e-4, t=2.0)
        assert w[0] == 0.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            C = rng.dirichlet(np.ones(4))
            I = rng.uniform(0, 10, 4)
            w, fb = nonlinear_pair(C, I, eps=1e-6, t=1.5)
            assert not fb
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w >= 0).all()

    def test_fallback_on_overflowed_indicators(self):
        w, fb = nonlinear_pair([0.5, 0.5], [np.inf, np.inf], eps=1e-6, t=2.0)
        assert fb
        np.testing.assert_array_equal(w, [0.5, 0.5])

    def test_fallback_on_nan(self):
        w, fb = nonlinear_pair([0.3, 0.7], [np.nan, 1.0], eps=1e-6, t=2.0)
        assert fb
        np.testing.assert_array_equal(w, [0.3, 0.7])

    def test_rows_are_independent_sets(self):
        C = np.array([[0.5, 0.5], [0.3, 0.7], [0.2, 0.8]])
        I = np.array([[0.0, 10.0], [np.inf, np.inf], [1.0, 2.0]])
        w, fb = nonlinear_pair(C, I, eps=1e-6, t=2.0)
        np.testing.assert_array_equal(fb, [False, True, False])
        for row in range(3):
            w_row, fb_row = nonlinear_pair(C[row], I[row], eps=1e-6, t=2.0)
            np.testing.assert_array_equal(w[row], w_row)
            assert fb[row] == fb_row


class TestParams:
    def test_validation(self):
        with pytest.raises(WenoError):
            WenoParams(r=1)
        with pytest.raises(WenoError):
            WenoParams(r=3, method="upwind")
        with pytest.raises(WenoError):
            WenoParams(r=3, epsilon_rule="h_cubed")
        with pytest.raises(WenoError):
            WenoParams(r=3, epsilon_rule=-1e-6)
        with pytest.raises(WenoError):
            WenoParams(r=3, t=0.0)
        for r in (3.5, 3.0, True, "3"):
            with pytest.raises(WenoError):
                WenoParams(r=r)
        for bad in (float("inf"), float("nan"), 0.0):
            with pytest.raises(WenoError):
                WenoParams(r=3, epsilon_rule=bad)
            with pytest.raises(WenoError):
                WenoParams(r=3, t=bad)
        assert WenoParams(r=np.int64(3), epsilon_rule=1, t=np.float64(2.0)).r == 3

    def test_defaults(self):
        p = WenoParams(r=3)
        assert p.resolve_t() == 2.0
        g = TensorGrid((build_uniform_grid(0, 1, 10),))
        assert p.resolve_eps(g) == pytest.approx(0.01)
        assert WenoParams(r=3, epsilon_rule=1e-8).resolve_eps(g) == 1e-8
        assert WenoParams(r=4, t=1.0).resolve_t() == 1.0


class TestLinearLimit:
    def test_telescopes_to_full_lagrange(self):
        # equal indicators cancel: recursion collapses to the 2r-node value
        rng = np.random.default_rng(5)
        for r in (2, 3, 4, 5):
            for n in (1, 2):
                gf = random_gf(n, 2 * r + 4, seed=10 * r + n)
                x = np.array([0.5 * (ax.nodes[r] + ax.nodes[r + 1]) + 1e-3
                              for ax in gf.grid.axes])
                prog = WenoParams(r=r, method="progressive")
                lin = WenoParams(r=r, method="linear")
                override = np.full((r,) * n, 0.37)
                got = interpolate_nd(gf, x, prog, smoothness_override=override).value
                want = interpolate_nd(gf, x, lin).value
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                rng.shuffle(x)  # keep rng advancing; x is re-derived next loop

    def test_zero_table_matches_linear_weights(self):
        gf = random_gf(1, 14, seed=3)
        x = 0.5 * (gf.grid.axes[0].nodes[6] + gf.grid.axes[0].nodes[7])
        params = WenoParams(r=3)
        res = interpolate_1d(gf, x, params, capture=True,
                             smoothness_override=np.zeros(3))
        state = capture_diagnostics(res)
        window = gf.grid.axes[0].nodes[4:10]
        for (l, j), wmap in state.weights.items():
            pair = weight_pair_general(window, l, j[0], x)
            assert wmap[(0,)] == pytest.approx(pair.c_keep, abs=1e-14)
            assert wmap[(1,)] == pytest.approx(pair.c_shift, abs=1e-14)


class TestPolynomialReproduction:
    def test_both_methods_reproduce_low_degree(self):
        # degree <= r per axis: every base interpolant equals the polynomial,
        # so any convex combination does too, whatever the indicators say
        rng = np.random.default_rng(9)
        for r in (2, 3, 4):
            for n in (1, 2):
                coefs = rng.uniform(-1, 1, (n, r + 1))
                def poly(*xs):
                    out = 1.0
                    for a, x in enumerate(xs):
                        out = out * np.polynomial.polynomial.polyval(x, coefs[a])
                    return out
                gf = random_gf(n, 2 * r + 3, seed=7 * r + n, fn=poly)
                x = np.array([0.5 * (ax.nodes[r] + ax.nodes[r + 1])
                              for ax in gf.grid.axes])
                want = poly(*x)
                for method in ("progressive", "classical", "linear"):
                    got = interpolate_nd(gf, x, WenoParams(r=r, method=method)).value
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestStepData:
    def step_gf(self, J, cut):
        g = build_uniform_grid(0, 1, J)
        return GridFunction.from_callable(
            TensorGrid((g,)), lambda x: (x >= cut).astype(float))

    def test_query_next_to_jump_stays_one_sided(self):
        # eps = h^2 must be small against the O(1) contaminated indicators
        J, r = 2048, 3
        i = J // 2
        g = build_uniform_grid(0, 1, J)
        cut = 0.5 * (g.nodes[i] + g.nodes[i + 1])  # jump one cell right of center
        gf = self.step_gf(J, cut)
        x = 0.5 * (g.nodes[i - 1] + g.nodes[i])
        res = interpolate_1d(gf, x, WenoParams(r=r))
        assert abs(res.value) <= 1e-10   # left-side samples are all 0

    def test_contaminated_mass_bound(self):
        # jump l0 cells right of the central cell: stencils crossing it get
        # weight mass O((eps / I_contaminated)^t)
        J, r = 128, 3
        g = build_uniform_grid(0, 1, J)
        i = J // 2
        params = WenoParams(r=r)
        for l0 in (1, 2):
            cut = 0.5 * (g.nodes[i + l0 - 1] + g.nodes[i + l0])
            gf = self.step_gf(J, cut)
            x = 0.5 * (g.nodes[i - 1] + g.nodes[i])
            res = interpolate_1d(gf, x, params, capture=True)
            masses = effective_masses(capture_diagnostics(res))
            contaminated = [k for k in range(r) if i + k >= i + l0]
            mass = sum(masses[(k,)] for k in contaminated)
            i_min = min(res.table.entries[k] for k in contaminated)
            eps = params.resolve_eps(gf.grid)
            bound = 10.0 * (eps / i_min) ** params.resolve_t()
            assert mass <= bound

    def test_hull_invariant(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            n = 1 + trial % 2
            gf = random_gf(n, 12, seed=trial)
            x = np.array([0.5 * (ax.nodes[5] + ax.nodes[6]) for ax in gf.grid.axes])
            res = interpolate_nd(gf, x, WenoParams(r=3))
            lo, hi = res.base_values.min(), res.base_values.max()
            pad = 1e-12 * max(1.0, abs(lo), abs(hi))
            assert lo - pad <= res.value <= hi + pad


class TestDiagnostics:
    def test_triangle_shape_and_seed_values(self):
        gf = random_gf(1, 14, seed=21)
        x = 0.5 * (gf.grid.axes[0].nodes[6] + gf.grid.axes[0].nodes[7])
        res = interpolate_1d(gf, x, WenoParams(r=3), capture=True)
        state = capture_diagnostics(res)
        assert [len(state.values[l]) for l in (3, 4, 5)] == [3, 2, 1]
        for k in range(3):
            assert state.values[3][(k,)] == float(res.base_values[k])
        assert state.values[5][(0,)] == res.value

    def test_weights_convex_at_every_node(self):
        gf = random_gf(2, 12, seed=33)
        x = np.array([0.5 * (ax.nodes[5] + ax.nodes[6]) for ax in gf.grid.axes])
        res = interpolate_nd(gf, x, WenoParams(r=3), capture=True)
        state = capture_diagnostics(res)
        for wmap in state.weights.values():
            vals = np.array(list(wmap.values()))
            assert (vals >= 0).all()
            assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_smooth_weights_approach_linear(self):
        # deviation from the linear pair weights shrinks by >= 2^(r-2) per
        # dyadic refinement (indicators agree to O(h^(r+1)))
        r = 3
        devs = []
        for J in (64, 128):
            g = build_uniform_grid(0, 1, J)
            gf = GridFunction.from_callable(TensorGrid((g,)),
                                            lambda x: np.sin(2 * x + 0.4))
            i = J // 2
            x = 0.5 * (g.nodes[i - 1] + g.nodes[i])
            res = interpolate_1d(gf, x, WenoParams(r=r), capture=True)
            state = capture_diagnostics(res)
            window = g.nodes[i - r : i + r]
            dev = 0.0
            for (l, j), wmap in state.weights.items():
                pair = weight_pair_general(window, l, j[0], x)
                dev = max(dev, abs(wmap[(0,)] - pair.c_keep),
                          abs(wmap[(1,)] - pair.c_shift))
            devs.append(dev)
        assert devs[0] / devs[1] >= 2.0 ** (r - 2)

    def test_not_captured_raises(self):
        gf = random_gf(1, 14, seed=2)
        x = 0.5 * (gf.grid.axes[0].nodes[6] + gf.grid.axes[0].nodes[7])
        res = interpolate_1d(gf, x, WenoParams(r=3))
        with pytest.raises(DiagnosticsNotCaptured):
            capture_diagnostics(res)
        res = interpolate_1d(gf, x, WenoParams(r=3, method="classical"), capture=True)
        with pytest.raises(DiagnosticsNotCaptured):
            capture_diagnostics(res)


class TestTwoDimensional:
    def test_r2_progressive_equals_classical(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            gf = random_gf(2, 8, seed=trial + 50)
            x = np.array([ax.nodes[2] + rng.uniform(0.01, 0.99)
                          * (ax.nodes[3] - ax.nodes[2]) for ax in gf.grid.axes])
            # r=2 has a single recursion level, so the two engines coincide
            a = interpolate_nd(gf, x, WenoParams(r=2, method="progressive")).value
            b = interpolate_nd(gf, x, WenoParams(r=2, method="classical")).value
            assert a == pytest.approx(b, rel=1e-13, abs=1e-13)

    def test_dim_mismatch(self):
        gf = random_gf(2, 10, seed=1)
        with pytest.raises(WenoError):
            interpolate_nd(gf, [0.5], WenoParams(r=3))
        with pytest.raises(WenoError):
            interpolate_1d(gf, 0.5, WenoParams(r=3))

    def test_window_violation(self):
        gf = random_gf(1, 10, seed=1)
        with pytest.raises(InsufficientStencilError):
            interpolate_1d(gf, float(gf.grid.axes[0].nodes[1]) - 1e-9, WenoParams(r=3))


class TestFallback:
    def overflow_gf(self, J=16):
        g = build_uniform_grid(0, 1, J)
        vals = np.where(np.arange(J + 1) % 2 == 0, 1e160, -1e160)
        return GridFunction(TensorGrid((g,)), vals)

    def test_overflow_triggers_linear_fallback(self):
        gf = self.overflow_gf()
        x = 0.5 * (gf.grid.axes[0].nodes[7] + gf.grid.axes[0].nodes[8])
        for method in ("progressive", "classical"):
            res = interpolate_1d(gf, x, WenoParams(r=3, method=method))
            assert res.linear_fallback
            want = interpolate_1d(gf, x, WenoParams(r=3, method="linear")).value
            assert res.value == pytest.approx(want, rel=1e-12)

    def test_smooth_data_does_not_fall_back(self):
        gf = random_gf(1, 14, seed=4, fn=lambda x: np.sin(x))
        x = 0.5 * (gf.grid.axes[0].nodes[6] + gf.grid.axes[0].nodes[7])
        res = interpolate_1d(gf, x, WenoParams(r=3))
        assert not res.linear_fallback


def full_window_points(gf, r, npts, rng):
    """Random points in cells whose 2r window lies inside the grid."""
    cols = []
    for ax in gf.grid.axes:
        i = rng.integers(r, ax.n_cells - r + 2, npts)
        cols.append(ax.nodes[i - 1] + rng.uniform(0.0, 1.0, npts) * (ax.nodes[i] - ax.nodes[i - 1]))
    return np.stack(cols, axis=1)


def assert_both_match_reference(gf, pts, params, override=None):
    """interpolate_batch and interpolate_nd both equal the scalar reference."""
    want = [reference_interpolate(gf, p, params, smoothness_override=override)
            for p in pts]
    batch = interpolate_batch(gf, pts, params, smoothness_override=override)
    single = [interpolate_nd(gf, p, params, smoothness_override=override) for p in pts]
    expect = np.array([w.value for w in want])
    np.testing.assert_allclose(batch.values, expect, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose([s.value for s in single], expect, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(batch.cells, [w.cell.i for w in want])
    np.testing.assert_array_equal([s.cell.i for s in single], [w.cell.i for w in want])
    np.testing.assert_array_equal(batch.fallback, [w.linear_fallback for w in want])
    for s, w in zip(single, want):
        np.testing.assert_allclose(s.base_values, w.base_values, rtol=1e-10, atol=1e-12)
        assert s.linear_fallback == w.linear_fallback
    return batch


class TestBatchEngine:
    def test_matches_scalar_1d(self):
        for seed, fn in ((1, None), (2, lambda x: np.sin(3 * x)),
                         (3, lambda x: (x >= 0.52).astype(float))):
            gf = random_gf(1, 20, seed=seed, fn=fn)
            nodes = gf.grid.axes[0].nodes
            rng = np.random.default_rng(seed)
            pts = rng.uniform(nodes[3], nodes[-4], 100)[:, None]
            for method in METHODS:
                assert_both_match_reference(gf, pts, WenoParams(r=3, method=method))

    def test_matches_scalar_2d(self):
        for seed, fn in ((11, None), (12, lambda x, y: np.exp(x) * np.cos(y)),
                         (13, lambda x, y: (x + y > 1.0).astype(float))):
            gf = random_gf(2, 14, seed=seed, fn=fn)
            rng = np.random.default_rng(seed)
            pts = np.stack([
                rng.uniform(ax.nodes[3], ax.nodes[-4], 60) for ax in gf.grid.axes
            ], axis=1)
            for method in METHODS:
                assert_both_match_reference(gf, pts, WenoParams(r=3, method=method))

    def test_matches_scalar_3d(self):
        for seed, fn in ((70, lambda x, y, z: np.sin(x + 2 * y) + z**2),
                         (71, lambda x, y, z: (x + y + z > 1.5).astype(float))):
            gf = random_gf(3, 8, seed=seed, fn=fn)
            rng = np.random.default_rng(seed)
            for r in (2, 3):
                pts = full_window_points(gf, r, 8, rng)
                for method in METHODS:
                    assert_both_match_reference(gf, pts, WenoParams(r=r, method=method))

    def test_matches_scalar_with_override(self):
        gf = random_gf(1, 16, seed=6)
        nodes = gf.grid.axes[0].nodes
        pts = np.linspace(nodes[4], nodes[-5], 17)[:, None]
        override = np.array([0.1, 0.0, 2.0])
        assert_both_match_reference(gf, pts, WenoParams(r=3), override=override)
        gf2 = random_gf(2, 12, seed=7)
        pts2 = full_window_points(gf2, 3, 10, np.random.default_rng(7))
        for method in ("progressive", "classical"):
            assert_both_match_reference(gf2, pts2, WenoParams(r=3, method=method),
                                        override=np.arange(9.0).reshape(3, 3))

    def test_reports_cells_hull_and_fallback(self):
        gf = random_gf(1, 20, seed=8)
        nodes = gf.grid.axes[0].nodes
        pts = np.linspace(nodes[4], nodes[-5], 23)
        params = WenoParams(r=3)
        got = interpolate_batch(gf, pts, params)
        for p, point in enumerate(pts):
            res = reference_interpolate(gf, [point], params)
            assert got.cells[p, 0] == res.cell.i[0]
            assert got.base_min[p] == pytest.approx(res.base_values.min(), rel=1e-12)
            assert got.base_max[p] == pytest.approx(res.base_values.max(), rel=1e-12)
        assert not got.fallback.any()
        assert ((got.base_min - 1e-10 <= got.values)
                & (got.values <= got.base_max + 1e-10)).all()

    def test_fallback_column(self):
        g = build_uniform_grid(0, 1, 16)
        vals = np.where(np.arange(17) % 2 == 0, 1e160, -1e160)
        gf = GridFunction(TensorGrid((g,)), vals)
        pts = np.array([0.47, 0.5])
        for method in ("progressive", "classical"):
            got = interpolate_batch(gf, pts, WenoParams(r=3, method=method))
            assert got.fallback.all()
            lin = interpolate_batch(gf, pts, WenoParams(r=3, method="linear"))
            np.testing.assert_allclose(got.values, lin.values, rtol=1e-12)

    def test_empty_and_invalid_inputs(self):
        gf = random_gf(1, 12, seed=9)
        out = interpolate_batch(gf, np.zeros((0,)), WenoParams(r=3))
        assert out.values.size == 0 and out.cells.shape == (0, 1)
        with pytest.raises(ValueError):
            interpolate_batch(gf, np.zeros((3, 2)), WenoParams(r=3))
        with pytest.raises(InsufficientStencilError):
            interpolate_batch(gf, np.array([gf.grid.axes[0].nodes[1] + 1e-9]),
                              WenoParams(r=3))
        with pytest.raises(OutOfDomainError):
            interpolate_batch(gf, np.array([0.5, np.nan]), WenoParams(r=3))
        with pytest.raises(OutOfDomainError):
            interpolate_nd(gf, [np.nan], WenoParams(r=3))


@st.composite
def engine_cases(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4 if n <= 2 else 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    J = 2 * r + int(rng.integers(1, 5))
    axes = []
    for _ in range(n):
        # strongly non-uniform: gaps spread over two decades
        gaps = 10.0 ** rng.uniform(-1.0, 1.0, J)
        axes.append(Grid1D(np.concatenate(([0.0], np.cumsum(gaps))) * rng.uniform(0.1, 10.0)))
    grid = TensorGrid(tuple(axes))
    if draw(st.booleans()):
        values = rng.normal(size=grid.shape)
    else:   # a jump across a tilted plane through the middle of the domain
        mesh = np.meshgrid(*(ax.nodes / ax.b for ax in axes), indexing="ij")
        values = (sum(m * (a + 1) for a, m in enumerate(mesh)) > 0.5 * n).astype(float)
    gf = GridFunction(grid, values)
    pts = full_window_points(gf, r, 3, rng)
    return gf, pts, r, draw(st.sampled_from(METHODS))


class TestEngineProperties:
    @given(engine_cases())
    @settings(max_examples=40, deadline=None)
    def test_entry_points_equal_reference(self, case):
        gf, pts, r, method = case
        batch = assert_both_match_reference(gf, pts, WenoParams(r=r, method=method))
        if method != "linear":
            pad = 1e-12 * np.maximum(1.0, np.maximum(np.abs(batch.base_min),
                                                     np.abs(batch.base_max)))
            assert ((batch.base_min - pad <= batch.values)
                    & (batch.values <= batch.base_max + pad)).all()
