import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import pweno
from pweno import smoothness
from pweno.grid import (
    Grid1D,
    GridFunction,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
)
from pweno.smoothness import gauss_rule, indicator_tables
from reference import indicator_definition, level_lookup


def indicator(gf, cell, r, k):
    """Indicator of base sub-stencil k around one cell."""
    return indicator_tables(gf, np.array([cell]), r)[(0,) + tuple(np.atleast_1d(k))]


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
        assert indicator(gf, (6,), 3, 1) == 0.0

    def test_linear_on_uniform_is_h_squared(self):
        for r in (1, 2, 3, 4):
            for J in (16, 64):
                g = build_uniform_grid(0, 1, J)
                gf = make_gf_1d(g, lambda x: x)
                i = J // 2
                got = indicator(gf, (i,), r, 0)
                assert got == pytest.approx((1.0 / J) ** 2, rel=1e-12)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(3)
        for r in (2, 3, 4):
            for trial in range(10):
                g = build_random_grid(0, 1, 14, seed=100 * r + trial)
                gf = GridFunction(TensorGrid((g,)), rng.normal(size=15))
                i = 7
                k = int(rng.integers(0, r))
                got = indicator(gf, (i,), r, k)
                sub = g.nodes[i - r + k : i - r + k + r + 1]
                v = gf.values[i - r + k : i - r + k + r + 1]
                want = indicator_oracle_1d(sub, v, g.nodes[i - 1], g.nodes[i],
                                           g.h_max, r)
                assert got == pytest.approx(max(want, 0.0), rel=1e-9, abs=1e-13)

    def test_quadratic_homogeneity(self):
        g = build_random_grid(0, 1, 12, seed=9)
        rng = np.random.default_rng(10)
        v = rng.normal(size=13)
        base = indicator(GridFunction(TensorGrid((g,)), v), (6,), 3, 2)
        quad = indicator(GridFunction(TensorGrid((g,)), 4.0 * v), (6,), 3, 2)
        assert quad == 16.0 * base   # power-of-two scale: exact
        odd = indicator(GridFunction(TensorGrid((g,)), 3.7 * v), (6,), 3, 2)
        assert odd == pytest.approx(3.7**2 * base, rel=1e-12)

    def test_quadrature_doubling_invariance(self, monkeypatch):
        g = build_random_grid(0, 1, 12, seed=17)
        rng = np.random.default_rng(18)
        gf = GridFunction(TensorGrid((g,)), rng.normal(size=13))
        a = indicator(gf, (6,), 3, 0)
        monkeypatch.setattr(smoothness, "gauss_rule", lambda q: gauss_rule(2 * q))
        b = indicator(gf, (6,), 3, 0)
        assert b == pytest.approx(a, rel=1e-12)

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
        got = indicator(gf, (i1, i2), r, (k1, k2))

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

class TestRefinementProperties:
    def refine_series(self, fn, r, levels=(32, 64, 128, 256, 512)):
        tables = []
        for J in levels:
            g = build_uniform_grid(0, 1, J)
            gf = make_gf_1d(g, fn)
            tables.append(indicator_tables(gf, np.array([[J // 2]]), r)[0])
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
            values.append(indicator(gf, (i,), r, 0))
        values = np.array(values)
        assert (values > 0.01).all()
        assert values[-1] >= 0.5 * values[0]


class TestLevelLookup:
    def test_examples(self):
        t = np.array([10.0, 20.0, 30.0])
        assert level_lookup(t, 4, 0, 1) == 30.0       # I^3_{0+ (4-2)*1}
        assert level_lookup(t, 3, 1, 0) == 20.0       # v = 0 keeps k
        assert level_lookup(t, 3, 0, 1) == 20.0
        e2 = np.arange(9.0).reshape(3, 3)
        assert level_lookup(e2, 4, (0, 0), (1, 0)) == e2[2, 0]
        assert level_lookup(e2, 3, (1, 1), (1, 1)) == e2[2, 2]

    def test_validation(self):
        t = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            level_lookup(t, 2, 0, 1)       # l < r
        with pytest.raises(ValueError):
            level_lookup(t, 5, 0, 1)       # l > 2r-2
        with pytest.raises(ValueError):
            level_lookup(t, 4, 1, 0)       # k > 2r-2-l
        with pytest.raises(ValueError):
            level_lookup(t, 3, 0, 2)       # v not in {0,1}
        with pytest.raises(ValueError):
            level_lookup(t, 3, (0, 0), (1, 0))   # wrong dimension


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
    return gf, cells, r


class TestIndicatorTables:
    @given(table_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, case):
        # many cells per call, repeats included, against the polyfit route
        gf, cells, r = case
        tables = indicator_tables(gf, cells, r)
        axes = gf.grid.axes
        for cell, table in zip(cells, tables):
            for k in np.ndindex(*(r,) * gf.grid.ndim):
                subs = [ax.nodes[i - r + kk : i + kk + 1] for ax, i, kk in zip(axes, cell, k)]
                block = gf.values[tuple(slice(i - r + kk, i + kk + 1)
                                        for i, kk in zip(cell, k))]
                bounds = [(ax.nodes[i - 1], ax.nodes[i]) for ax, i in zip(axes, cell)]
                hs = [ax.h_max for ax in axes]
                want = indicator_definition(subs, block, bounds, hs)
                assert table[k] == pytest.approx(want, rel=1e-9)

    @given(st.integers(1, 3).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(2, 3 if n == 3 else 5))),
           st.integers(0, 2**31 - 1),
           st.lists(st.integers(-330, 330), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, nr, seed, ks):
        # x -> 2^k x + d with d = 2^k d0: the scaled grid is exactly the
        # shifted one times a power of two; the half/h factors are per axis
        n, r = nr
        rng = np.random.default_rng(seed)
        J = 2 * r + 3
        base = [random_axis(rng, J).nodes + rng.integers(-4, 5) for _ in range(n)]
        values = rng.normal(size=(J + 1,) * n)
        cells = rng.integers(r, J - r + 2, size=(5, n))

        def tables(k):
            grid = TensorGrid(tuple(Grid1D(2.0 ** kk * nd) for kk, nd in zip(k, base)))
            return indicator_tables(GridFunction(grid, values), cells, r)

        scaled = tables(ks[:n])
        assert np.isfinite(scaled).all()
        np.testing.assert_allclose(scaled, tables([0] * n), rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("n, r", [pytest.param(2, 2, id="2"), pytest.param(2, 3, id="3"),
                                      pytest.param(3, 2, id="3d-2")])
    def test_chunk_boundaries(self, monkeypatch, n, r):
        # 7 rows a chunk, so chunks split cells and 50 r^n rows end in a partial
        # chunk; odd m = r + 1 puts rows at every offset of a BLAS call's
        # unrolled blocks
        rng = np.random.default_rng(11)
        grid = TensorGrid(tuple(random_axis(rng, 14) for _ in range(n)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        cells = np.unique(rng.integers(r, 14 - r + 2, size=(400, n)), axis=0)[:50]
        assert cells.shape[0] == 50
        full = indicator_tables(gf, cells, r)
        monkeypatch.setattr(smoothness, "_CHUNK_BYTES", 7 * 8 * ((r + 1) ** 2) ** n)
        chunked = indicator_tables(gf, cells, r)
        np.testing.assert_array_equal(chunked, full)
        for cell, table in zip(cells, chunked):
            np.testing.assert_array_equal(indicator_tables(gf, cell[None], r)[0], table)

    @given(table_cases(), st.integers(1, 1 << 21))
    @settings(max_examples=40, deadline=None)
    def test_cell_bits_do_not_depend_on_company_or_chunk(self, case, chunk_bytes):
        # a cell's table is the same alone as among other cells, at any budget
        gf, cells, r = case
        with patch.object(smoothness, "_CHUNK_BYTES", chunk_bytes):
            tables = indicator_tables(gf, cells, r)
        for cell, table in zip(cells, tables):
            np.testing.assert_array_equal(indicator_tables(gf, cell[None], r)[0], table)

    def test_peak_memory_is_a_few_chunks(self):
        # 3,600 cells at r = 3: the 32,400 sub-stencil blocks alone take 4.1 MB,
        # so gathering them all at once fails here, not only in peak RSS. A
        # chunk peaks near twice its budget, and the tables exist twice at
        # the end (per distinct cell and per queried cell)
        r, J = 3, 64
        rng = np.random.default_rng(5)
        grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(2)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        inner = np.arange(r, J - r + 2)
        cells = np.stack(np.meshgrid(inner, inner, indexing="ij"), axis=-1).reshape(-1, 2)
        assert cells.shape[0] == 3600
        indicator_tables(gf, cells[:1], r)      # fill the Gauss rule and weight caches
        tracemalloc.start()
        try:
            tables = indicator_tables(gf, cells, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * smoothness._CHUNK_BYTES + 2 * tables.nbytes


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestBatchedBuild:
    @pytest.mark.parametrize("n, J", [(1, 1006), (2, 38)])
    def test_one_gauss_rule_and_one_kernel_call(self, monkeypatch, n, J):
        # counts, not times: per-(cell, k) or per-axis work would call these more
        r = 3
        calls = {"gauss": 0, "kernel": 0}
        monkeypatch.setattr(smoothness, "gauss_rule",
                            counting(calls, "gauss", smoothness.gauss_rule))
        monkeypatch.setattr(smoothness, "derivative_samples",
                            counting(calls, "kernel", smoothness.derivative_samples))
        rng = np.random.default_rng(7)
        grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(n)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        mids = [0.5 * (ax.nodes[r:J - r + 1] + ax.nodes[r - 1:J - r]) for ax in grid.axes]
        pts = np.stack([m.ravel() for m in np.meshgrid(*mids, indexing="ij")], axis=1)
        assert pts.shape[0] >= 1000
        pweno.interpolate_batch(gf, pts if n > 1 else pts[:, 0], pweno.WenoParams(r=r))
        assert calls == {"gauss": 1, "kernel": 1}

    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3) for r in (2, 3, 4)])
    def test_one_kernel_pass_per_call(self, monkeypatch, n, r):
        # every (cell, offset k) row goes through one _indicator_values call,
        # not one call per k
        calls = {"pass": 0}
        monkeypatch.setattr(smoothness, "_indicator_values",
                            counting(calls, "pass", smoothness._indicator_values))
        rng = np.random.default_rng(10 * n + r)
        J = 2 * r + 3
        grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(n)))
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        cells = rng.integers(r, J - r + 2, size=(12, n))
        assert indicator_tables(gf, cells, r).shape == (12,) + (r,) * n
        assert calls == {"pass": 1}
