import copy
import math
import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pweno import WenoParams, interpolate_batch
from pweno.grid import (
    Grid1D,
    GridError,
    GridFunction,
    InsufficientStencilError,
    OutOfDomainError,
    TensorGrid,
    blocks,
    build_perturbed_grid,
    build_random_grid,
    build_uniform_grid,
    locate_cells,
    refine_dyadic,
)
from reference import locate_cells_loop


class TestGrid1D:
    def test_rejects_short(self):
        with pytest.raises(GridError, match="at least 2 nodes"):
            Grid1D(np.array([0.0]))

    def test_rejects_nodes_that_are_not_1d(self):
        with pytest.raises(GridError, match=r"nodes must be a 1-D array, got shape \(1, 2\)"):
            Grid1D(np.array([[0.0, 1.0]]))
        with pytest.raises(GridError, match=r"got shape \(\)"):
            Grid1D(0.5)

    def test_rejects_non_increasing(self):
        with pytest.raises(GridError):
            Grid1D(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(GridError):
            Grid1D(np.array([0.0, 2.0, 1.0]))

    def test_nodes_read_only(self):
        g = Grid1D(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            g.nodes[0] = -1.0

    def test_h_max(self):
        g = Grid1D(np.array([0.0, 1.0, 3.0, 3.5]))
        assert g.h_max == 2.0
        assert g.n_cells == 3

    @pytest.mark.parametrize("nodes", [[0, 0.25, 0.5, 0.75, 1, 2, 3, np.inf], [-np.inf, 0.0, 1.0],
                                       [0.0, np.nan, 1.0], [np.nan, np.nan]])
    def test_rejects_non_finite_nodes(self, nodes):
        # an infinite last node used to pass as h_max = inf
        with pytest.raises(GridError, match="nodes must all be finite"):
            Grid1D(nodes)

    def test_rejects_an_overflowing_gap(self):
        # finite nodes whose gap overflows; np.diff's warning does not leak
        with pytest.raises(GridError, match="gap between nodes -1e[+]308 and 1e[+]308 overflows"):
            Grid1D([-1e308, 1e308])
        with pytest.raises(GridError, match="nodes -1e[+]308 and 1.5e[+]308 overflows"):
            Grid1D([-1.5e308, -1e308, 1.5e308, 1.6e308])

    @pytest.mark.parametrize("nodes", [[0.0, 0.5 + 1j, 1.0], np.linspace(0.0, 1.0, 5) + 0j])
    def test_rejects_complex_nodes(self, nodes):
        # a cast would drop the imaginary parts
        with pytest.raises(GridError, match="grid field 'nodes' must hold real numbers"):
            Grid1D(nodes)


class TestBuildUniform:
    def test_nodes(self):
        g = build_uniform_grid(0.0, 1.0, 4)
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.n_cells == 4

    def test_invalid_range(self):
        with pytest.raises(GridError):
            build_uniform_grid(1.0, 0.0, 4)
        with pytest.raises(GridError):
            build_uniform_grid(0.0, 0.0, 4)

    def test_invalid_count(self):
        with pytest.raises(GridError):
            build_uniform_grid(0.0, 1.0, 0)


class TestBuildRandom:
    def test_endpoints_and_monotone(self):
        g = build_random_grid(-2.0, 3.0, 20, seed=5)
        assert g.nodes[0] == -2.0 and g.nodes[-1] == 3.0
        assert g.nodes.size == 21
        assert np.all(np.diff(g.nodes) > 0)

    def test_deterministic(self):
        g1 = build_random_grid(0.0, 1.0, 32, seed=9)
        g2 = build_random_grid(0.0, 1.0, 32, seed=9)
        np.testing.assert_array_equal(g1.nodes, g2.nodes)

    def test_seed_changes_grid(self):
        g1 = build_random_grid(0.0, 1.0, 32, seed=1)
        g2 = build_random_grid(0.0, 1.0, 32, seed=2)
        assert not np.array_equal(g1.nodes, g2.nodes)

    def test_too_few_cells(self):
        with pytest.raises(GridError):
            build_random_grid(0.0, 1.0, 1, seed=0)


class TestRefineDyadic:
    def test_keeps_old_nodes_exactly(self):
        g = build_random_grid(0.0, 1.0, 16, seed=3)
        f = refine_dyadic(g)
        assert f.n_cells == 32
        np.testing.assert_array_equal(f.nodes[0::2], g.nodes)

    def test_inserts_midpoints(self):
        g = Grid1D(np.array([0.0, 1.0, 4.0]))
        f = refine_dyadic(g)
        np.testing.assert_allclose(f.nodes, [0.0, 0.5, 1.0, 2.5, 4.0])

    def test_uniform_stays_uniform(self):
        g = build_uniform_grid(0.0, 1.0, 8)
        f = refine_dyadic(g)
        np.testing.assert_allclose(f.nodes, build_uniform_grid(0.0, 1.0, 16).nodes,
                                   atol=1e-16)

    def test_nodes_near_the_largest_float(self):
        # the sum of two nodes overflows here; their halves do not
        f = refine_dyadic(Grid1D([1e308, 1.7e308]))
        np.testing.assert_array_equal(f.nodes, [1e308, 1.35e308, 1.7e308])


class TestBuildPerturbed:
    def test_shape_and_bounds(self):
        # one draw per grid: every gap positive, the ends exact, each node
        # within h/2 of its uniform place
        for level, seed in product(range(1, 13), range(20)):
            J = 2**level
            h = 2.0 ** (1 - level)
            base = -1.0 + h * np.arange(J + 1)
            g = build_perturbed_grid(level, seed)
            assert g.nodes.size == J + 1
            assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
            assert np.all(np.abs(g.nodes - base) < h / 2)
            assert np.all(np.diff(g.nodes) > 0)

    def test_deterministic(self):
        g1 = build_perturbed_grid(4, seed=2)
        g2 = build_perturbed_grid(4, seed=2)
        np.testing.assert_array_equal(g1.nodes, g2.nodes)

    def test_invalid_level(self):
        with pytest.raises(GridError):
            build_perturbed_grid(0, seed=0)


class TestBuilderArguments:
    @given(a=st.floats(allow_nan=True, allow_infinity=True),
           b=st.floats(allow_nan=True, allow_infinity=True),
           count=st.one_of(st.integers(-2, 10), st.booleans(),
                           st.floats(allow_nan=True, allow_infinity=True)),
           seed=st.integers(0, 2**32))
    @example(a=0.0, b=1.0, count=2.5, seed=0)
    @example(a=-1e308, b=1e308, count=4, seed=0)
    @example(a=0.0, b=1.0, count=True, seed=0)
    @example(a=-1.7976931348623157e308, b=0.0, count=3, seed=0)
    @example(a=0.0, b=1.7976931348623157e308, count=3, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_bad_arguments_raise_grid_error(self, a, b, count, seed):
        # an integer count (not a bool) and a finite b - a > 0, else GridError
        # naming the argument; good arguments give a grid, or GridError when
        # floats cannot hold count + 1 distinct nodes in [a, b]
        whole = isinstance(count, int) and not isinstance(count, bool)
        span = a < b and math.isfinite(b - a)
        builds = [(lambda: build_uniform_grid(a, b, count), span, 1, count),
                  (lambda: build_random_grid(a, b, count, seed), span, 2, count),
                  (lambda: build_perturbed_grid(count, seed), True, 1, whole and 2 ** count)]
        for build, good_range, least, cells in builds:
            if good_range and whole and count >= least:
                try:
                    assert build().n_cells == cells
                except GridError as err:
                    assert "invalid" not in str(err)
            else:
                with pytest.raises(GridError, match="invalid"):
                    build()


@st.composite
def locate_cases(draw):
    """A 1-3-D random grid, r (None or 1..4) and 1..6 queries. Each query
    coordinate is drawn per axis: most often inside a cell with a full
    window, else inside any cell (short-window ones included), on the
    first, last or an interior node, below or above the domain, or NaN. So
    calls mix points that pass with points that fail, on any axis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 3))
    r = draw(st.sampled_from([None, 1, 2, 3, 4]))
    lo = r or 1
    axes = [Grid1D(np.cumsum(np.concatenate(([rng.uniform(-1, 1)], rng.uniform(0.1, 1, J)))))
            for J in rng.integers(1, 12, n)]
    kinds = ["full"] * 30 + ["any"] * 3 + ["first", "last", "node", "below", "above", "nan"]
    pts = np.empty((draw(st.integers(1, 6)), n))
    for p, a in np.ndindex(pts.shape):
        nodes = axes[a].nodes
        kind = kinds[draw(st.integers(0, len(kinds) - 1))]
        cells = np.arange(1, nodes.size)
        full = cells[(cells >= lo) & (cells <= nodes.size - lo)]
        i = rng.choice(full if kind == "full" and full.size else cells)
        pts[p, a] = {"first": nodes[0], "last": nodes[-1], "node": nodes[i], "nan": np.nan,
                     "below": nodes[0] - rng.uniform(0, 1), "above": nodes[-1] + rng.uniform(0, 1),
                     }.get(kind, nodes[i - 1] + rng.uniform(0, 1) * (nodes[i] - nodes[i - 1]))
    return TensorGrid(tuple(axes)), pts, r


@st.composite
def merge_cases(draw):
    """A 1-3-D random grid, r (None or 2..4) and queries for the merge and the
    per-point search alike: few queries on up to 400 cells or up to 300 on
    up to 12, each axis sorted or not. A coordinate is most often inside a
    cell with a full window, else in any cell, on a node (the first and last
    included), below or above the domain, NaN or +-inf; drawn shares of the
    coordinates move to the node that ends their cell or repeat others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 3))
    r = draw(st.sampled_from([None, 2, 3, 4]))
    lo = r or 1
    many = draw(st.booleans())      # many points on few nodes, or few on many
    npts = draw(st.integers(20, 300) if many else st.integers(1, 8))
    axes = []
    for _ in range(n):
        J = draw(st.integers(1, 12) if many else st.integers(1, 400))
        axes.append(Grid1D(np.cumsum(np.concatenate(([rng.uniform(-1, 1)],
                                                     rng.uniform(0.1, 1, J))))))
    rare = ["any", "node", "first", "last", "below", "above", "nan", "inf", "-inf"]
    p_rare = draw(st.sampled_from([0.0, 0.002, 0.05]))
    pts = np.empty((npts, n))
    for a, ax in enumerate(axes):
        nodes = ax.nodes
        cells = np.arange(1, nodes.size)
        full = cells[(cells >= lo) & (cells <= nodes.size - lo)]
        i = rng.choice(full if full.size else cells, npts)
        col = nodes[i - 1] + rng.uniform(0, 1, npts) * (nodes[i] - nodes[i - 1])
        snap = rng.random(npts) < draw(st.sampled_from([0.0, 0.3]))
        col[snap] = nodes[i[snap]]      # the node that ends the cell
        for p in np.flatnonzero(rng.random(npts) < p_rare):
            kind, j = rare[rng.integers(len(rare))], rng.integers(1, nodes.size)
            col[p] = {"node": nodes[j], "first": nodes[0], "last": nodes[-1],
                      "below": nodes[0] - rng.uniform(0, 1), "above": nodes[-1] + rng.uniform(0, 1),
                      "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                      }.get(kind, nodes[j - 1] + rng.uniform(0, 1) * (nodes[j] - nodes[j - 1]))
        repeats = rng.random(npts) < draw(st.sampled_from([0.0, 0.3]))
        col[repeats] = col[rng.integers(0, npts, repeats.sum())]
        pts[:, a] = np.sort(col) if draw(st.booleans()) else col
    return TensorGrid(tuple(axes)), pts, r


def assert_like_the_point_loop(grid, pts, r):
    """locate_cells gives reference.locate_cells_loop's cells (npts, n) as
    intp, or raises its exception class with its message."""
    try:
        want = locate_cells_loop(grid, pts, r)
    except GridError as err:
        with pytest.raises(type(err)) as got:
            locate_cells(grid, pts, r)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        got = locate_cells(grid, pts, r)
        assert got.dtype == np.intp and got.shape == pts.shape
        np.testing.assert_array_equal(got, want)


def locate_1d(nodes, x):
    """locate_cells on the one-axis grid of nodes, as one cell per query."""
    return locate_cells(TensorGrid((Grid1D(nodes),)), np.asarray(x)[:, None])[:, 0]


class TestLocate:
    def test_half_open_convention(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        # node hits belong to the cell ending there; left endpoint to cell 1
        np.testing.assert_array_equal(
            locate_1d(nodes, np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
            [1, 1, 1, 2, 2, 3],
        )

    def test_out_of_domain(self):
        nodes = np.array([0.0, 1.0])
        with pytest.raises(OutOfDomainError):
            locate_1d(nodes, np.array([-0.1]))
        with pytest.raises(OutOfDomainError):
            locate_1d(nodes, np.array([1.1]))
        # NaN fails every comparison, so it must be rejected explicitly
        with pytest.raises(OutOfDomainError):
            locate_1d(nodes, np.array([0.5, np.nan]))
        with pytest.raises(OutOfDomainError):
            locate_cells(TensorGrid((build_uniform_grid(0.0, 1.0, 4),)), np.array([[np.nan]]))

    def test_locate_cell_nd(self):
        gx = build_uniform_grid(0.0, 1.0, 10)
        gy = build_uniform_grid(0.0, 2.0, 10)
        grid = TensorGrid((gx, gy))
        np.testing.assert_array_equal(locate_cells(grid, np.array([[0.55, 1.35]])), [[6, 7]])

    def test_window_check(self):
        g = build_uniform_grid(0.0, 1.0, 10)
        grid = TensorGrid((g,))
        np.testing.assert_array_equal(locate_cells(grid, np.array([[0.45]]), r=3), [[5]])
        with pytest.raises(InsufficientStencilError):
            locate_cells(grid, np.array([[0.05]]), r=3)
        with pytest.raises(InsufficientStencilError):
            locate_cells(grid, np.array([[0.95]]), r=3)

    @given(locate_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_point_loop(self, case):
        # the same cells, or the same exception class and message, as one
        # axis and one point at a time
        assert_like_the_point_loop(*case)

    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_merge_matches_the_point_loop(self, case):
        # a sorted axis is located by a merge when the nodes its queries
        # span are fewer than they are, else by a search per query: either
        # way as one axis and one point at a time
        assert_like_the_point_loop(*case)

    @pytest.mark.parametrize("J, npts, merged", [(8, 50, True), (400, 50, False), (8, 1, False)])
    def test_only_a_sorted_axis_with_few_spanned_nodes_is_merged(self, monkeypatch, J, npts,
                                                                 merged):
        # not few points on a long axis, one point or an unsorted axis
        calls = []
        repeat = np.repeat
        monkeypatch.setattr(np, "repeat", lambda *a, **k: calls.append(1) or repeat(*a, **k))
        nodes = np.linspace(0.0, 1.0, J + 1)
        x = np.sort(np.random.default_rng(J).uniform(0.0, 1.0, npts))
        for pts, want in ((x, merged), (x[::-1], False)):
            calls.clear()
            got = locate_1d(nodes, pts)
            assert len(calls) == want
            np.testing.assert_array_equal(got, np.maximum(nodes.searchsorted(pts), 1))

    def test_nan_among_sorted_queries(self):
        # NaN fails the sortedness test wherever it is, so it is searched
        # and rejected, not merged into a cell
        x = np.linspace(0.1, 0.9, 50)
        for at in (0, 25, 49):
            y = x.copy()
            y[at] = np.nan
            with pytest.raises(OutOfDomainError):
                locate_1d(np.linspace(0.0, 1.0, 9), y)

    @given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_locate_invariant(self, seed, frac):
        g = build_random_grid(0.0, 1.0, 12, seed=seed)
        x = frac  # in [0, 1] by construction
        i = int(locate_1d(g.nodes, np.array([x]))[0])
        assert 1 <= i <= g.n_cells
        if x == 0.0:
            assert i == 1
        else:
            assert g.nodes[i - 1] < x <= g.nodes[i]


class TestTensorGridAndFunction:
    def test_round_trip(self):
        grid = TensorGrid((build_random_grid(0, 1, 8, seed=1),
                           build_uniform_grid(-1, 1, 4)))
        back = TensorGrid.from_dict(grid.to_dict())
        for a, b in zip(grid.axes, back.axes):
            np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_global_h(self):
        grid = TensorGrid((Grid1D(np.array([0.0, 0.5, 1.0])),
                           Grid1D(np.array([0.0, 0.9, 1.0]))))
        assert grid.h == 0.9
        assert grid.shape == (3, 3)

    def test_from_callable_axis_order(self):
        grid = TensorGrid((build_uniform_grid(0, 1, 2), build_uniform_grid(0, 1, 4)))
        gf = GridFunction.from_callable(grid, lambda x, y: x + 10 * y)
        assert gf.values.shape == (3, 5)
        assert gf.values[2, 0] == 1.0          # x1 = 1, x2 = 0
        assert gf.values[0, 4] == 10.0         # x1 = 0, x2 = 1

    def test_shape_mismatch(self):
        grid = TensorGrid((build_uniform_grid(0, 1, 2),))
        with pytest.raises(GridError):
            GridFunction(grid, np.zeros(4))

    def test_rejects_non_finite(self):
        grid = TensorGrid((build_uniform_grid(0, 1, 2),))
        with pytest.raises(GridError):
            GridFunction(grid, np.array([0.0, np.nan, 1.0]))

    def test_rejects_complex_values_and_axes(self):
        # a cast would keep only the real parts
        grid = TensorGrid((build_uniform_grid(0, 1, 2),))
        with pytest.raises(GridError, match="grid field 'values' must hold real numbers"):
            GridFunction(grid, np.array([0.0, 0.5, 1.0]) + 1j)
        with pytest.raises(GridError, match="grid field 'values' must hold real numbers"):
            GridFunction.from_dict({"axes": [[0.0, 0.5, 1.0]], "values": [0.0, 1j, 1.0]})
        with pytest.raises(GridError, match="grid field 'axes' must hold real numbers"):
            TensorGrid.from_dict({"axes": [[0.0, 0.5j, 1.0]]})

    def test_function_round_trip(self):
        grid = TensorGrid((build_uniform_grid(0, 1, 3),))
        gf = GridFunction(grid, np.array([1.0, 2.0, 3.0, 4.0]))
        back = GridFunction.from_dict(gf.to_dict())
        np.testing.assert_array_equal(back.values, gf.values)
        np.testing.assert_array_equal(back.grid.axes[0].nodes, grid.axes[0].nodes)

    def test_pickles_and_copies_without_its_memo(self):
        # the memo is a cache and its lock cannot be pickled: a pickled or
        # copied grid function starts empty and gives the same answers
        gf = GridFunction.from_callable(TensorGrid((build_uniform_grid(0, 1, 12),)), np.sin)
        pts = np.linspace(0.3, 0.7, 9)
        want = interpolate_batch(gf, pts, WenoParams(r=3)).values
        for back in (pickle.loads(pickle.dumps(gf)), copy.deepcopy(gf), copy.copy(gf)):
            assert back._indicator_memo == {} and back._memo_lock is not gf._memo_lock
            np.testing.assert_array_equal(back.values, gf.values)
            np.testing.assert_array_equal(interpolate_batch(back, pts, WenoParams(r=3)).values,
                                          want)

    def test_keeps_its_own_copy(self):
        # the caller's arrays stay writable, and writing to them (or to the
        # writable base of a view) after construction reaches neither the
        # grid function nor its answers, so its indicator memo cannot go stale
        nodes = np.linspace(0.0, 1.0, 13)
        base = np.zeros((2, 13))
        base[1] = np.sin(3.0 * nodes)
        gf = GridFunction(TensorGrid((Grid1D(nodes),)), base[1])
        x, params = [0.37, 0.52, 0.61], WenoParams(r=3)
        want = interpolate_batch(gf, x, params).values
        kept = gf.values.copy()
        assert nodes.flags.writeable and base[1].flags.writeable
        nodes[1:-1] += 0.01
        base[1] = np.cos(3.0 * nodes)
        np.testing.assert_array_equal(gf.values, kept)
        np.testing.assert_array_equal(gf.grid.axes[0].nodes, np.linspace(0.0, 1.0, 13))
        np.testing.assert_array_equal(interpolate_batch(gf, x, params).values, want)


class TestBlocks:
    @given(n=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_explicit_slicing(self, n, data):
        # grid values, or a Grid1D's nodes when n = 1; every width, and the
        # first and last full block on every axis among the starts
        shape = tuple(data.draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        if n == 1 and data.draw(st.booleans()):
            a = Grid1D(np.cumsum(rng.uniform(0.1, 1.0, shape[0] + 1))).nodes
        else:
            a = GridFunction(TensorGrid(tuple(Grid1D(np.arange(d + 1.0)) for d in shape)),
                             rng.normal(size=tuple(d + 1 for d in shape))).values
        shape = a.shape
        for width in range(1, min(shape) + 1):
            last = np.array(shape) - width
            starts = np.vstack([np.zeros(n, dtype=int), last,
                                rng.integers(0, last + 1, (3, n))])
            got = blocks(a, starts, width)
            # window axes first and the starts last, contiguous in that order
            assert got.shape == (width,) * n + (5,)
            assert got.flags.c_contiguous
            assert got.flags.writeable and not np.shares_memory(got, a)
            for p, s in enumerate(starts):
                np.testing.assert_array_equal(got[..., p],
                                              a[tuple(slice(i, i + width) for i in s)])
            # any leading shape of starts
            more = blocks(a, starts.reshape(5, 1, n), width)
            assert more.flags.c_contiguous
            np.testing.assert_array_equal(more, got[..., None])
