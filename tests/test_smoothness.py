import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import pweno
from pweno import smoothness
from pweno.grid import (
    CellIndex,
    Grid1D,
    GridFunction,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
)
from pweno.smoothness import (
    IndicatorParams,
    SmoothnessError,
    SmoothnessTable,
    build_table,
    gauss_rule,
    indicator_tables,
    smoothness_indicator,
)
from pweno.stencil import Stencil1D, StencilND
from reference import indicator_definition, level_lookup

PARAMS = IndicatorParams()


def indicator_oracle_1d(nodes, values, a, b, h, r):
    """Definition route: interpolate, differentiate, square, integrate exactly."""
    coef = P.polyfit(nodes, values, deg=len(nodes) - 1)
    total = 0.0
    for l in range(1, r + 1):
        d = P.polyder(coef, l)
        sq = P.polymul(d, d)
        anti = P.polyint(sq)
        total += h ** (2 * l - 1) * (P.polyval(b, anti) - P.polyval(a, anti))
    return total


def make_gf_1d(grid, fn):
    return GridFunction.from_callable(TensorGrid((grid,)), fn)


class TestIndicator1D:
    def test_constant_is_zero(self):
        g = build_random_grid(0, 1, 12, seed=0)
        gf = make_gf_1d(g, lambda x: np.full_like(x, 3.7))
        st = StencilND((Stencil1D(i=6, r=3, k=1, m=3),))
        assert smoothness_indicator(gf, st, CellIndex((6,)), PARAMS) == 0.0

    def test_linear_on_uniform_is_h_squared(self):
        for r in (1, 2, 3, 4):
            for J in (16, 64):
                g = build_uniform_grid(0, 1, J)
                gf = make_gf_1d(g, lambda x: x)
                i = J // 2
                st = StencilND((Stencil1D(i=i, r=r, k=0, m=r),))
                got = smoothness_indicator(gf, st, CellIndex((i,)), PARAMS)
                assert got == pytest.approx((1.0 / J) ** 2, rel=1e-12)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(3)
        for r in (2, 3, 4):
            for trial in range(10):
                g = build_random_grid(0, 1, 14, seed=100 * r + trial)
                gf = GridFunction(TensorGrid((g,)), rng.normal(size=15))
                i = 7
                k = int(rng.integers(0, r))
                st = StencilND((Stencil1D(i=i, r=r, k=k, m=r),))
                got = smoothness_indicator(gf, st, CellIndex((i,)), PARAMS)
                sub = g.nodes[i - r + k : i - r + k + r + 1]
                v = gf.values[i - r + k : i - r + k + r + 1]
                want = indicator_oracle_1d(sub, v, g.nodes[i - 1], g.nodes[i],
                                           g.h_max, r)
                assert got == pytest.approx(max(want, 0.0), rel=1e-9, abs=1e-13)

    def test_quadratic_homogeneity(self):
        g = build_random_grid(0, 1, 12, seed=9)
        rng = np.random.default_rng(10)
        v = rng.normal(size=13)
        st = StencilND((Stencil1D(i=6, r=3, k=2, m=3),))
        cell = CellIndex((6,))
        base = smoothness_indicator(GridFunction(TensorGrid((g,)), v), st, cell, PARAMS)
        quad = smoothness_indicator(GridFunction(TensorGrid((g,)), 4.0 * v), st, cell, PARAMS)
        assert quad == 16.0 * base   # power-of-two scale: exact
        odd = smoothness_indicator(GridFunction(TensorGrid((g,)), 3.7 * v), st, cell, PARAMS)
        assert odd == pytest.approx(3.7**2 * base, rel=1e-12)

    def test_quadrature_doubling_invariance(self):
        g = build_random_grid(0, 1, 12, seed=17)
        rng = np.random.default_rng(18)
        gf = GridFunction(TensorGrid((g,)), rng.normal(size=13))
        st = StencilND((Stencil1D(i=6, r=3, k=0, m=3),))
        cell = CellIndex((6,))
        a = smoothness_indicator(gf, st, cell, IndicatorParams(q=4))
        b = smoothness_indicator(gf, st, cell, IndicatorParams(q=8))
        assert b == pytest.approx(a, rel=1e-12)

    def test_width_must_match_r(self):
        g = build_uniform_grid(0, 1, 10)
        gf = make_gf_1d(g, np.sin)
        with pytest.raises(SmoothnessError):
            smoothness_indicator(
                gf,
                StencilND((Stencil1D(i=5, r=3, k=0, m=2),)),
                CellIndex((5,)),
                PARAMS,
            )

    def test_q_too_small(self):
        with pytest.raises(SmoothnessError):
            IndicatorParams(q=3).resolve_q(3)
        assert IndicatorParams().resolve_q(3) == 4

    @pytest.mark.parametrize("q", [4.5, True, "4", 0])
    def test_q_must_be_a_positive_integer(self, q):
        with pytest.raises(SmoothnessError, match=repr(q)):
            IndicatorParams(q=q)

    def test_q_accepts_numpy_integer(self):
        assert IndicatorParams(q=np.int64(5)).resolve_q(3) == 5

    def test_local_h_option(self):
        # widest gap sits outside the sub-stencil, so the two h choices differ
        g = Grid1D(np.concatenate([np.linspace(0, 0.6, 12), [1.0]]))
        gf = make_gf_1d(g, lambda x: np.sin(3 * x))
        st = StencilND((Stencil1D(i=6, r=3, k=0, m=3),))
        cell = CellIndex((6,))
        global_h = smoothness_indicator(gf, st, cell, IndicatorParams())
        local_h = smoothness_indicator(gf, st, cell, IndicatorParams(local_h=True))
        assert global_h != local_h
        gu = build_uniform_grid(0, 1, 12)
        gfu = make_gf_1d(gu, lambda x: np.sin(3 * x))
        assert smoothness_indicator(gfu, st, cell, IndicatorParams()) == pytest.approx(
            smoothness_indicator(gfu, st, cell, IndicatorParams(local_h=True)), rel=1e-13)


class TestIndicator2D:
    def test_matches_definition_oracle(self):
        # independent symbolic route through the multi-index sum
        r = 2
        gx = build_random_grid(0, 1, 8, seed=31)
        gy = build_random_grid(0, 1, 8, seed=32)
        rng = np.random.default_rng(33)
        vals = rng.normal(size=(9, 9))
        gf = GridFunction(TensorGrid((gx, gy)), vals)
        i1, i2, k1, k2 = 4, 5, 1, 0
        st = StencilND((Stencil1D(i=i1, r=r, k=k1, m=r), Stencil1D(i=i2, r=r, k=k2, m=r)))
        cell = CellIndex((i1, i2))
        got = smoothness_indicator(gf, st, cell, PARAMS)

        x, y = sp.symbols("x y")
        nx = gx.nodes[i1 - r + k1 : i1 - r + k1 + r + 1]
        ny = gy.nodes[i2 - r + k2 : i2 - r + k2 + r + 1]
        block = vals[i1 - r + k1 : i1 - r + k1 + r + 1, i2 - r + k2 : i2 - r + k2 + r + 1]

        def basis(nodes, var, a):
            out = sp.Integer(1)
            for b_ in range(len(nodes)):
                if b_ != a:
                    out *= (var - nodes[b_]) / (nodes[a] - nodes[b_])
            return out

        p = sum(
            sp.Float(block[a, b]) * basis(nx, x, a) * basis(ny, y, b)
            for a in range(r + 1)
            for b in range(r + 1)
        )
        h1, h2 = gx.h_max, gy.h_max
        a1, b1 = gx.nodes[i1 - 1], gx.nodes[i1]
        a2, b2 = gy.nodes[i2 - 1], gy.nodes[i2]
        total = sp.Float(0)
        for l1 in range(r + 1):
            for l2 in range(r + 1):
                if l1 == l2 == 0:
                    continue
                d = sp.diff(p, x, l1, y, l2)
                inner = sp.integrate(sp.expand(d**2), (x, a1, b1), (y, a2, b2))
                total += h1 ** (2 * l1 - 1) * h2 ** (2 * l2 - 1) * inner
        assert got == pytest.approx(max(float(total), 0.0), rel=1e-8)

    def test_table_matches_pointwise_indicator(self):
        r = 3
        gx = build_random_grid(0, 1, 12, seed=41)
        gy = build_random_grid(0, 2, 12, seed=42)
        rng = np.random.default_rng(43)
        gf = GridFunction(TensorGrid((gx, gy)), rng.normal(size=(13, 13)))
        cell = CellIndex((6, 6))
        table = build_table(gf, cell, r, PARAMS)
        assert table.entries.shape == (3, 3)
        for k1 in range(r):
            for k2 in range(r):
                st = StencilND((Stencil1D(i=6, r=r, k=k1, m=r),
                                Stencil1D(i=6, r=r, k=k2, m=r)))
                direct = smoothness_indicator(gf, st, cell, PARAMS)
                assert table.entries[k1, k2] == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_table_window_check(self):
        gf = GridFunction.from_callable(
            TensorGrid((build_uniform_grid(0, 1, 8), build_uniform_grid(0, 1, 8))),
            lambda x, y: x + y)
        with pytest.raises(SmoothnessError):
            build_table(gf, CellIndex((1, 4)), 3, PARAMS)


class TestRefinementProperties:
    def refine_series(self, fn, r, levels=(32, 64, 128, 256, 512)):
        tables = []
        for J in levels:
            g = build_uniform_grid(0, 1, J)
            gf = make_gf_1d(g, fn)
            tables.append(build_table(gf, CellIndex((J // 2,)), r, PARAMS).entries)
        return np.array(tables)

    def test_smooth_entries_shrink_by_four(self):
        # ratio between consecutive dyadic levels at the fine end
        entries = self.refine_series(lambda x: np.sin(2 * x + 0.3) + x**2, r=3)
        ratios = entries[:-1] / entries[1:]
        assert ((ratios[-3:] > 3.4) & (ratios[-3:] < 4.6)).all()

    def test_smooth_relative_gaps_shrink_fast(self):
        # entry spread relative to the common h^2 scale decays like h^(r+1);
        # use the finest transition whose gaps sit safely above roundoff
        r = 3
        entries = self.refine_series(lambda x: np.sin(4 * x + 0.4), r=r,
                                     levels=(32, 64, 128, 256))
        rel = np.abs(np.diff(entries, axis=1)) / entries.mean(axis=1)[:, None]
        trusted = [i for i in range(len(rel) - 1)
                   if rel[i].min() >= 1e-8 and rel[i + 1].min() >= 1e-8]
        ratios = rel[trusted[-1]] / rel[trusted[-1] + 1]
        target = 2.0 ** (r + 1)
        assert ((ratios > 0.7 * target) & (ratios < 1.4 * target)).all()

    def test_step_indicator_does_not_decay(self):
        # jump between the window's central nodes at every level
        r = 2
        values = []
        for J in (32, 64, 128, 256, 512):
            g = build_uniform_grid(0, 1, J)
            gf = make_gf_1d(g, lambda x: (x >= 0.5 - 1e-12).astype(float))
            i = J // 2
            st = StencilND((Stencil1D(i=i, r=r, k=0, m=r),))
            values.append(smoothness_indicator(gf, st, CellIndex((i,)), PARAMS))
        values = np.array(values)
        assert (values > 0.01).all()
        assert values[-1] >= 0.5 * values[0]


class TestLevelLookup:
    def table_1d(self, entries):
        return SmoothnessTable(r=len(entries), ndim=1, entries=np.array(entries),
                               cell_bounds=((0.0, 1.0),))

    def test_examples(self):
        t = self.table_1d([10.0, 20.0, 30.0])
        assert level_lookup(t, 4, 0, 1) == 30.0       # I^3_{0+ (4-2)*1}
        assert level_lookup(t, 3, 1, 0) == 20.0       # v = 0 keeps k
        assert level_lookup(t, 3, 0, 1) == 20.0
        e2 = np.arange(9.0).reshape(3, 3)
        t2 = SmoothnessTable(r=3, ndim=2, entries=e2,
                             cell_bounds=((0.0, 1.0), (0.0, 1.0)))
        assert level_lookup(t2, 4, (0, 0), (1, 0)) == e2[2, 0]
        assert level_lookup(t2, 3, (1, 1), (1, 1)) == e2[2, 2]

    def test_validation(self):
        t = self.table_1d([1.0, 2.0, 3.0])
        with pytest.raises(SmoothnessError):
            level_lookup(t, 2, 0, 1)       # l < r
        with pytest.raises(SmoothnessError):
            level_lookup(t, 5, 0, 1)       # l > 2r-2
        with pytest.raises(SmoothnessError):
            level_lookup(t, 4, 1, 0)       # k > 2r-2-l
        with pytest.raises(SmoothnessError):
            level_lookup(t, 3, 0, 2)       # v not in {0,1}
        with pytest.raises(SmoothnessError):
            level_lookup(t, 3, (0, 0), (1, 0))   # wrong dimension

    def test_shape_validation(self):
        with pytest.raises(SmoothnessError):
            SmoothnessTable(r=3, ndim=1, entries=np.zeros(4), cell_bounds=((0, 1),))


def test_gauss_rule_integrates_polynomials():
    a, b = 0.25, 0.75
    u, w = gauss_rule(4)
    pts, wts = a + 0.5 * (b - a) * (u + 1.0), 0.5 * (b - a) * w
    coef = np.array([1.0, -2.0, 0.5, 3.0, 1.0, -0.7, 0.2, 0.1])  # degree 7 = 2q-1
    anti = P.polyint(coef)
    exact = P.polyval(b, anti) - P.polyval(a, anti)
    assert float(wts @ P.polyval(pts, coef)) == pytest.approx(exact, rel=1e-14)


def random_axis(rng, J: int) -> Grid1D:
    """J cells on [0, 1] whose widths spread over two decades."""
    gaps = 10.0 ** rng.uniform(-1.0, 1.0, J)
    return Grid1D(np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum())


@st.composite
def table_cases(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 3 if n == 3 else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    J = 2 * r + int(rng.integers(1, 6))
    grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(n)))
    gf = GridFunction(grid, rng.normal(size=grid.shape))
    ncells = int(rng.integers(1, 4 if n == 3 else 9))
    cells = rng.integers(r, J - r + 2, size=(ncells, n))
    return gf, cells, r, draw(st.booleans())


class TestIndicatorTables:
    @given(table_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, case):
        # many cells per call, repeats included, against the polyfit route
        gf, cells, r, local_h = case
        tables = indicator_tables(gf, cells, r, IndicatorParams(local_h=local_h))
        axes = gf.grid.axes
        for cell, table in zip(cells, tables):
            for k in np.ndindex(*(r,) * gf.grid.ndim):
                subs = [ax.nodes[i - r + kk : i + kk + 1] for ax, i, kk in zip(axes, cell, k)]
                block = gf.values[tuple(slice(i - r + kk, i + kk + 1)
                                        for i, kk in zip(cell, k))]
                bounds = [(ax.nodes[i - 1], ax.nodes[i]) for ax, i in zip(axes, cell)]
                hs = [np.diff(nd).max() if local_h else ax.h_max for nd, ax in zip(subs, axes)]
                want = indicator_definition(subs, block, bounds, hs)
                assert table[k] == pytest.approx(want, rel=1e-9)

    @given(st.integers(1, 2), st.integers(2, 5), st.integers(0, 2**31 - 1),
           st.lists(st.integers(-330, 330), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, n, r, seed, ks):
        # x -> 2^k x + d with d = 2^k d0: the scaled grid is exactly the
        # shifted one times a power of two
        rng = np.random.default_rng(seed)
        J = 2 * r + 3
        base = [random_axis(rng, J).nodes + rng.integers(-4, 5) for _ in range(n)]
        values = rng.normal(size=(J + 1,) * n)
        cells = rng.integers(r, J - r + 2, size=(5, n))

        def tables(k):
            grid = TensorGrid(tuple(Grid1D(2.0 ** kk * nd) for kk, nd in zip(k, base)))
            return indicator_tables(GridFunction(grid, values), cells, r, IndicatorParams())

        scaled = tables(ks[:n])
        assert np.isfinite(scaled).all()
        np.testing.assert_allclose(scaled, tables([0] * n), rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("r", [2, 3])
    def test_chunk_boundaries(self, monkeypatch, r):
        # 7 rows a chunk, so 50 cells end in a partial chunk; odd m = r + 1
        # puts rows at every offset of a BLAS call's unrolled blocks
        n = 2
        rng = np.random.default_rng(11)
        grid = TensorGrid(tuple(random_axis(rng, 14) for _ in range(n)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        cells = np.unique(rng.integers(r, 14 - r + 2, size=(400, n)), axis=0)[:50]
        assert cells.shape[0] == 50
        full = indicator_tables(gf, cells, r, PARAMS)
        monkeypatch.setattr(smoothness, "_CHUNK_BYTES", 7 * 8 * ((r + 1) ** 2) ** n)
        chunked = indicator_tables(gf, cells, r, PARAMS)
        np.testing.assert_array_equal(chunked, full)
        for cell, table in zip(cells, chunked):
            for k in np.ndindex(*(r,) * n):
                st_ = StencilND(tuple(Stencil1D(i=int(i), r=r, k=kk, m=r)
                                      for i, kk in zip(cell, k)))
                one = smoothness_indicator(gf, st_, CellIndex(tuple(cell)), PARAMS)
                assert one == pytest.approx(table[k], rel=1e-12, abs=1e-15)


class TestBatchedBuild:
    @pytest.mark.parametrize("n, J", [(1, 1006), (2, 38)])
    def test_one_gauss_rule_and_one_kernel_call_per_axis(self, monkeypatch, n, J):
        # counts, not times: per-(cell, k) work would call these per cell
        r = 3
        calls = {"gauss": 0, "kernel": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(smoothness, "gauss_rule", counting("gauss", smoothness.gauss_rule))
        monkeypatch.setattr(smoothness, "derivative_samples",
                            counting("kernel", smoothness.derivative_samples))
        rng = np.random.default_rng(7)
        grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(n)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        mids = [0.5 * (ax.nodes[r:J - r + 1] + ax.nodes[r - 1:J - r]) for ax in grid.axes]
        pts = np.stack([m.ravel() for m in np.meshgrid(*mids, indexing="ij")], axis=1)
        assert pts.shape[0] >= 1000
        pweno.interpolate_batch(gf, pts if n > 1 else pts[:, 0], pweno.WenoParams(r=r))
        assert calls == {"gauss": 1, "kernel": n}
