import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import pweno
from pweno import smoothness, weno
from pweno.grid import (
    Grid1D,
    GridFunction,
    InsufficientStencilError,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
    locate_cells,
)
from pweno.smoothness import gauss_rule, indicator_tables
from reference import indicator_definition, level_lookup, locate_cells_loop


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


def fresh(gf):
    """The same grid function with an empty indicator memo."""
    return GridFunction(gf.grid, gf.values)


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
        b = indicator(fresh(gf), (6,), 3, 0)     # gf would answer from its memo
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


def random_gf(rng, n, J):
    """Normal samples on n random axes of J cells."""
    grid = TensorGrid(tuple(random_axis(rng, J) for _ in range(n)))
    return GridFunction(grid, rng.normal(size=grid.shape))


@st.composite
def table_cases(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 3 if n == 3 else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    J = 2 * r + int(rng.integers(1, 6))
    gf = random_gf(rng, n, J)
    ncells = int(rng.integers(1, 4 if n == 3 else 9))
    cells = rng.integers(r, J - r + 2, size=(ncells, n))
    return gf, cells, r


@st.composite
def memo_cases(draw):
    """A grid function (n = 1..3, with a jump), earlier point sets with
    their r, and a last point set with its r = 2..4 and method."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    J = 10
    gf = random_gf(rng, n, J)
    gf = GridFunction(gf.grid, gf.values + 5.0 * (gf.values > 1.0))

    def points(r, count):
        lo, hi = (np.array([ax.nodes[i] for ax in gf.grid.axes]) for i in (r - 1, J - r + 1))
        return hi - (hi - lo) * rng.random((count, n))     # in (lo, hi]

    history = [(points(r0, draw(st.integers(1, 25))), r0)
               for r0 in draw(st.lists(st.integers(2, 4), max_size=4))]
    r = draw(st.integers(2, 4))
    return gf, history, (points(r, 20), r, draw(st.sampled_from(["progressive", "classical",
                                                                 "linear"])))


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
        gf = random_gf(rng, n, 14)
        cells = np.unique(rng.integers(r, 14 - r + 2, size=(400, n)), axis=0)[:50]
        assert cells.shape[0] == 50
        full = indicator_tables(gf, cells, r)
        monkeypatch.setattr(smoothness, "_CHUNK_BYTES", 7 * 8 * ((r + 1) ** 2) ** n)
        chunked = indicator_tables(fresh(gf), cells, r)
        np.testing.assert_array_equal(chunked, full)
        for cell, table in zip(cells, chunked):
            np.testing.assert_array_equal(indicator_tables(fresh(gf), cell[None], r)[0], table)

    @given(table_cases(), st.integers(1, 1 << 21))
    @settings(max_examples=40, deadline=None)
    def test_cell_bits_do_not_depend_on_company_or_chunk(self, case, chunk_bytes):
        # a cell's table is the same alone as among other cells, at any budget
        gf, cells, r = case
        with patch.object(smoothness, "_CHUNK_BYTES", chunk_bytes):
            tables = indicator_tables(gf, cells, r)
        for cell, table in zip(cells, tables):
            np.testing.assert_array_equal(indicator_tables(fresh(gf), cell[None], r)[0], table)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(2, 4), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cells_without_a_full_window(self, seed, n, r, warm):
        # cells of every kind, short windows included, on a fresh or warm grid
        # function: their tables, or locate_cells' error for points inside
        # them taken in flat-index order, with the memo left as it was
        rng = np.random.default_rng(seed)
        J = 2 * r + int(rng.integers(-1, 4))
        gf = random_gf(rng, n, J)
        cells = rng.integers(1, J + 1, size=(int(rng.integers(1, 7)), n))
        if warm:
            indicator_tables(gf, rng.integers(r, J - r + 2, size=(5, n)), r)
        before = gf._indicator_memo.get(r)
        in_order = cells[np.argsort(np.ravel_multi_index(tuple(cells.T), gf.grid.shape))]
        mids = np.stack([0.5 * (ax.nodes[i - 1] + ax.nodes[i])
                         for ax, i in zip(gf.grid.axes, in_order.T)], axis=1)
        try:
            np.testing.assert_array_equal(locate_cells_loop(gf.grid, mids, r), in_order)
        except InsufficientStencilError as err:
            with pytest.raises(InsufficientStencilError) as got:
                indicator_tables(gf, cells, r)
            assert str(got.value) == str(err)
            assert gf._indicator_memo.get(r) is before
        else:
            np.testing.assert_array_equal(indicator_tables(gf, cells, r),
                                          indicator_tables(fresh(gf), cells, r))

    def test_peak_memory_is_a_few_chunks(self):
        # 3,600 cells at r = 3: the 32,400 sub-stencil blocks alone take 4.1 MB,
        # so gathering them all at once fails here, not only in peak RSS. A
        # chunk peaks near twice its budget; the tables exist up to four times
        # at the end (as built, in the memo, per distinct and per queried
        # cell), after the chunks are freed
        r, J = 3, 64
        rng = np.random.default_rng(5)
        gf = random_gf(rng, 2, J)
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


class TestMemoLookup:
    """The memo's row index is gathered with the call's own cells, sorted or
    not, so a warm call sorts nothing; only the cells still to be built go
    through np.unique. Any order of the same cells gives the same tables. A
    run is the cells one call added: they hold the next rows of the memo."""

    def unique_calls(self, monkeypatch):
        calls = {"unique": 0}
        monkeypatch.setattr(np, "unique", counting(calls, "unique", np.unique))
        return calls

    def flat(self, gf, cells):
        return np.ravel_multi_index(tuple(cells.T), gf.grid.shape)

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 2), (3, 2)])
    def test_sorted_multi_chunk_call(self, monkeypatch, n, r):
        # evaluate in chunks of 4 points hands over cells sorted on the first
        # axis, repeats included; their tables are those of the same cells
        # shuffled
        rng = np.random.default_rng(20 + n)
        J = 2 * r + 4
        gf = random_gf(rng, n, J)
        lo, hi = (np.array([ax.nodes[i] for ax in gf.grid.axes]) for i in (r - 1, J - r + 1))
        pts = hi - (hi - lo) * rng.random((60, n))      # in (lo, hi]: full windows
        seen = []

        def spy(gf, cells, r):
            seen.append((cells, indicator_tables(gf, cells, r)))
            return seen[-1][1]

        monkeypatch.setattr(weno, "indicator_tables", spy)
        monkeypatch.setattr(smoothness, "_CHUNK_BYTES", 4 * 8 * (2 * r) ** n)
        monkeypatch.setattr(weno, "_MIN_CHUNK", 1)
        pweno.interpolate_batch(gf, pts, pweno.WenoParams(r=r))
        (cells, tables), = seen
        flat = self.flat(gf, cells)
        assert (np.diff(cells[:, 0]) >= 0).all() and np.unique(flat).size < flat.size
        perm = rng.permutation(len(cells))
        np.testing.assert_array_equal(indicator_tables(fresh(gf), cells[perm], r), tables[perm])
        calls = self.unique_calls(monkeypatch)
        np.testing.assert_array_equal(indicator_tables(gf, cells, r), tables)   # warm
        assert calls["unique"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unsorted_one_chunk_call(self, monkeypatch, n):
        r = 2
        rng = np.random.default_rng(30 + n)
        gf = random_gf(rng, n, 9)
        cells = rng.integers(r, 9 - r + 2, size=(40, n))
        order = np.argsort(self.flat(gf, cells), kind="stable")
        assert (np.diff(order) < 0).any()
        tables = indicator_tables(gf, cells, r)
        np.testing.assert_array_equal(indicator_tables(fresh(gf), cells[order], r), tables[order])
        calls = self.unique_calls(monkeypatch)
        np.testing.assert_array_equal(indicator_tables(gf, cells, r), tables)   # warm
        assert calls["unique"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_point_call_on_a_memo_of_three_runs(self, monkeypatch, n):
        # runs of 40, 10 and 2 cells: a cell of each, and one not yet built
        r, J = 2, {1: 60, 2: 12, 3: 8}[n]
        rng = np.random.default_rng(40 + n)
        gf = random_gf(rng, n, J)
        cells = np.stack(np.unravel_index(rng.permutation((J - 2 * r + 2) ** n)[:53],
                                          (J - 2 * r + 2,) * n), axis=1) + r
        assert (np.diff(self.flat(gf, cells)) < 0).any()
        want = indicator_tables(fresh(gf), cells, r)
        runs = [cells[lo:hi] for lo, hi in ((0, 40), (40, 50), (50, 52))]
        for run in runs:
            indicator_tables(gf, run, r)
        assert_memo_rows(gf, r, [self.flat(gf, run) for run in runs])
        for at in (0, 39, 45, 51, 52):
            calls = self.unique_calls(monkeypatch)
            got = indicator_tables(gf, cells[at][None], r)
            # a build finds its new cells once and samples once per axis
            assert calls["unique"] == (n + 1 if at == 52 else 0)
            monkeypatch.undo()
            np.testing.assert_array_equal(got[0], want[at])
        np.testing.assert_array_equal(memo_cells(gf, r), np.sort(self.flat(gf, cells)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_call_across_three_runs_new_cells_and_repeats(self, n):
        # one call mixes cells of runs of 40, 10 and 2 cells with 6 new
        # cells, each asked twice, in shuffled order
        r, J = 2, {1: 80, 2: 12, 3: 8}[n]
        rng = np.random.default_rng(50 + n)
        gf = random_gf(rng, n, J)
        cells = np.stack(np.unravel_index(rng.permutation((J - 2 * r + 2) ** n)[:58],
                                          (J - 2 * r + 2,) * n), axis=1) + r
        runs = [cells[lo:hi] for lo, hi in ((0, 40), (40, 50), (50, 52))]
        for run in runs:
            indicator_tables(gf, run, r)
        assert_memo_rows(gf, r, [self.flat(gf, run) for run in runs])
        ask = np.concatenate([cells[[3, 17, 44, 48, 50, 51]], cells[52:]])
        ask = np.concatenate([ask, ask])[rng.permutation(2 * len(ask))]
        np.testing.assert_array_equal(indicator_tables(gf, ask, r),
                                      indicator_tables(fresh(gf), ask, r))
        np.testing.assert_array_equal(memo_cells(gf, r), np.sort(self.flat(gf, cells)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("new", [0, 2])
    def test_a_newer_run_serves_most_points(self, n, new):
        # the rows are taken from the run of 10 cells, asked five times
        # each, and only the oldest run's, the newest run's and any new
        # cells' points are filled by mask
        r, J = 2, {1: 80, 2: 12, 3: 8}[n]
        rng = np.random.default_rng(60 + n)
        gf = random_gf(rng, n, J)
        cells = np.stack(np.unravel_index(rng.permutation((J - 2 * r + 2) ** n)[:54],
                                          (J - 2 * r + 2,) * n), axis=1) + r
        for lo, hi in ((0, 40), (40, 50), (50, 52)):
            indicator_tables(gf, cells[lo:hi], r)
        ask = np.concatenate([np.repeat(cells[40:50], 5, axis=0), cells[[3, 17, 33, 51]],
                              cells[52:52 + new]])
        ask = ask[rng.permutation(len(ask))]
        np.testing.assert_array_equal(indicator_tables(gf, ask, r),
                                      indicator_tables(fresh(gf), ask, r))
        np.testing.assert_array_equal(memo_cells(gf, r),
                                      np.sort(self.flat(gf, cells[:52 + new])))


class TestBatchedBuild:
    @pytest.mark.parametrize("n, J", [(1, 1006), (2, 38)])
    def test_one_gauss_rule_and_one_kernel_call(self, monkeypatch, n, J):
        # counts, not times: an engine call with new cells (here every cell of
        # a fresh grid function) samples once; per-(cell, k) or per-axis work
        # would call these more
        r = 3
        calls = {"gauss": 0, "kernel": 0}
        monkeypatch.setattr(smoothness, "gauss_rule",
                            counting(calls, "gauss", smoothness.gauss_rule))
        monkeypatch.setattr(smoothness, "derivative_samples",
                            counting(calls, "kernel", smoothness.derivative_samples))
        rng = np.random.default_rng(7)
        gf = random_gf(rng, n, J)
        mids = [0.5 * (ax.nodes[r:J - r + 1] + ax.nodes[r - 1:J - r]) for ax in gf.grid.axes]
        pts = np.stack([m.ravel() for m in np.meshgrid(*mids, indexing="ij")], axis=1)
        assert pts.shape[0] >= 1000
        pweno.interpolate_batch(gf, pts if n > 1 else pts[:, 0], pweno.WenoParams(r=r))
        assert calls == {"gauss": 1, "kernel": 1}

    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3) for r in (2, 3, 4)])
    def test_one_kernel_pass_per_call(self, monkeypatch, n, r):
        # on a fresh grid function every (cell, offset k) row goes through one
        # _indicator_values call, not one call per k
        calls = {"pass": 0}
        monkeypatch.setattr(smoothness, "_indicator_values",
                            counting(calls, "pass", smoothness._indicator_values))
        rng = np.random.default_rng(10 * n + r)
        J = 2 * r + 3
        gf = random_gf(rng, n, J)
        cells = rng.integers(r, J - r + 2, size=(12, n))
        assert indicator_tables(gf, cells, r).shape == (12,) + (r,) * n
        assert calls == {"pass": 1}


def memo_cells(gf, r):
    """Flat indices of the cells gf's indicator memo holds at r, sorted."""
    memo = gf._indicator_memo.get(r)
    return np.empty(0, int) if memo is None else np.flatnonzero(memo[0] >= 0)


def assert_memo_rows(gf, r, calls):
    """gf's memo at r gives the new cells of each call in calls (flat cell
    indices, in call order) its next rows, by flat index; every other cell
    reads -1."""
    rows, tables, count = gf._indicator_memo[r]
    built = np.empty(0, dtype=np.intp)
    for flat in calls:
        new = np.setdiff1d(flat, built)
        np.testing.assert_array_equal(rows[new], built.size + np.arange(new.size))
        built = np.concatenate((built, new))
    assert count == built.size <= len(tables) and tables.shape[1] == r ** gf.grid.ndim
    assert (np.delete(rows, built) == -1).all()


class TestIndicatorMemo:
    def counted(self, monkeypatch):
        calls = {"samples": 0, "pass": 0, "cells": []}
        real = smoothness._indicator_values

        def kernel(gf, cells, *args):
            calls["cells"].append(np.ravel_multi_index(tuple(cells.T), gf.grid.shape))
            return real(gf, cells, *args)

        monkeypatch.setattr(smoothness, "derivative_samples",
                            counting(calls, "samples", smoothness.derivative_samples))
        monkeypatch.setattr(smoothness, "_indicator_values", counting(calls, "pass", kernel))
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_repeated_call_builds_nothing(self, monkeypatch, n):
        r, J = 2, 8
        rng = np.random.default_rng(n)
        gf = random_gf(rng, n, J)
        cells = rng.integers(r, J - r + 2, size=(30, n))
        first = indicator_tables(gf, cells, r)
        calls = self.counted(monkeypatch)
        np.testing.assert_array_equal(indicator_tables(gf, cells[::-1], r), first[::-1])
        assert (calls["samples"], calls["pass"]) == (0, 0)

    def test_overlapping_call_builds_only_new_cells(self, monkeypatch):
        r, n, J = 3, 2, 12
        rng = np.random.default_rng(4)
        gf = random_gf(rng, n, J)

        def flat(cells):
            return np.ravel_multi_index(tuple(cells.T), gf.grid.shape)

        before = rng.integers(r, J - r + 2, size=(20, n))
        indicator_tables(gf, before, r)
        after = np.concatenate([before[5:15], rng.integers(r, J - r + 2, size=(20, n))])
        calls = self.counted(monkeypatch)
        indicator_tables(gf, after, r)
        new = np.setdiff1d(flat(after), flat(before))
        assert new.size > 0 and calls["pass"] == 1 and calls["samples"] == 1
        np.testing.assert_array_equal(calls["cells"][0], new)
        np.testing.assert_array_equal(memo_cells(gf, r), np.union1d(flat(before), flat(after)))

    def test_linear_method_leaves_memo_empty(self):
        rng = np.random.default_rng(2)
        gf = random_gf(rng, 2, 10)
        pts = rng.uniform(gf.grid.axes[0].nodes[2], gf.grid.axes[0].nodes[8], size=(15, 2))
        pweno.interpolate_batch(gf, pts, pweno.WenoParams(r=3, method="linear"))
        pweno.interpolate_nd(gf, pts[0], pweno.WenoParams(r=3, method="linear"))
        assert gf._indicator_memo == {}
        pweno.interpolate_batch(gf, pts, pweno.WenoParams(r=3))
        assert list(gf._indicator_memo) == [3]

    @given(memo_cases())
    @settings(max_examples=40, deadline=None)
    def test_warm_equals_fresh(self, case):
        # whatever was asked of gf before, its answers are a fresh grid
        # function's bit for bit, and its memo holds exactly the cells asked
        gf, history, (pts, r, method) = case
        asked = {}
        for earlier, r0 in history:
            pweno.interpolate_batch(gf, earlier, pweno.WenoParams(r=r0))
            cells = locate_cells(gf.grid, earlier, r0)
            asked[r0] = np.union1d(asked.get(r0, np.empty(0, int)),
                                   np.ravel_multi_index(tuple(cells.T), gf.grid.shape))
        for r0, want in asked.items():
            np.testing.assert_array_equal(memo_cells(gf, r0), want)
            # unasked cells read -1; asked cells hold distinct rows below the count
            rows, tables, count = gf._indicator_memo[r0]
            assert np.array_equal(np.sort(rows[want]), np.arange(count))
            assert tables.shape == (len(tables), r0 ** gf.grid.ndim) and count <= len(tables)
        assert set(gf._indicator_memo) == set(asked)
        params = pweno.WenoParams(r=r, method=method)
        warm, cold = (pweno.interpolate_batch(g, pts, params) for g in (gf, fresh(gf)))
        for field in ("values", "cells", "fallback"):
            np.testing.assert_array_equal(getattr(warm, field), getattr(cold, field))
        for x in pts[:3]:
            one, ref = (pweno.interpolate_nd(g, x, params) for g in (gf, fresh(gf)))
            assert (one.value, one.cell, one.linear_fallback) == \
                (ref.value, ref.cell, ref.linear_fallback)
            if ref.indicators is None:
                assert one.indicators is None
            else:
                np.testing.assert_array_equal(one.indicators, ref.indicators)

    def test_threads_build_each_cell_once(self, monkeypatch):
        # more threads than cores on overlapping cells of a fresh grid
        # function, switching as often as the interpreter lets them: each
        # cell is built once, and every thread gets a fresh build's tables
        r, n, J = 3, 2, 40
        rng = np.random.default_rng(8)
        base = random_gf(rng, n, J)
        built = []

        def spy(gf, flat, *args):
            built.append(flat)
            return real(gf, flat, *args)

        real = smoothness._cell_tables
        monkeypatch.setattr(smoothness, "_cell_tables", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                gf, built[:] = fresh(base), []
                cells = rng.integers(r, J - r + 2, size=(700, n))
                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(indicator_tables, gf, cells[k:k + 400], r)
                               for k in (0, 100, 200, 300)]
                    got = [f.result(timeout=60) for f in futures]
                every = np.concatenate(built)
                assert every.size == np.unique(every).size
                want = indicator_tables(fresh(base), cells, r)
                for k, tables in zip((0, 100, 200, 300), got):
                    np.testing.assert_array_equal(tables, want[k:k + 400])
        finally:
            sys.setswitchinterval(interval)

    @given(memo_cases())
    @settings(max_examples=15, deadline=None)
    def test_threads_share_one_memo(self, case):
        # two threads on overlapping cells of one grid function give the bits
        # of one thread on a fresh one; a lost memo update only costs a rebuild
        gf, history, (pts, r, method) = case
        for earlier, r0 in history:
            pweno.interpolate_batch(gf, earlier, pweno.WenoParams(r=r0))
        params = pweno.WenoParams(r=r, method=method)
        half = len(pts) // 2
        parts = [pts[: half + 5], pts[half - 5:]] * 3
        want = [pweno.interpolate_batch(fresh(gf), p, params).values for p in parts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(pweno.interpolate_batch, gf, p, params) for p in parts]
                got = [f.result(timeout=60).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


NO_MA_SCRIPT = """
import sys
import numpy as np
from pweno import WenoParams, interpolate_batch
from pweno.cli import main
from pweno.grid import GridFunction, TensorGrid, build_random_grid

rng = np.random.default_rng(0)
for n, npts in ((1, 5000), (2, 2000)):
    axes = tuple(build_random_grid(0.0, 1.0, 24, seed) for seed in range(n))
    gf = GridFunction.from_callable(TensorGrid(axes), lambda *x: np.sin(sum(x)))
    interpolate_batch(gf, 0.3 + 0.4 * rng.random((npts, n)), WenoParams(r=3))
for argv in (["bench2d", "--function", "f4", "--grid", "perturbed", "--levels", "4..5"],
             ["bench1d", "--function", "f2", "--grid", "random", "--seed", "4",
              "--levels", "5..6"]):
    assert main(argv) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_numpy_ma_import():
    # fresh tables and both studies never import numpy.ma (1.1 MiB): numpy
    # 2.4's np.unique imports it on its hash path, which return_inverse=True
    # avoids in indicator_tables
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_MA_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
