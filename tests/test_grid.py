import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pweno import WenoParams, interpolate_batch
from pweno.grid import (
    Grid1D,
    GridError,
    GridFunction,
    InsufficientStencilError,
    OutOfDomainError,
    TensorGrid,
    build_perturbed_grid,
    build_random_grid,
    build_uniform_grid,
    locate_cells,
    locate_cells_1d,
    refine_dyadic,
)


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
        assert g.a == 0.0 and g.b == 3.5


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


class TestBuildPerturbed:
    def test_shape_and_bounds(self):
        level = 5
        g = build_perturbed_grid(level, seed=11)
        J = 2**level
        h = 2.0 ** (1 - level)
        assert g.nodes.size == J + 1
        assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
        base = -1.0 + h * np.arange(J + 1)
        assert np.all(np.abs(g.nodes - base) <= h / 2 + 1e-15)
        assert np.all(np.diff(g.nodes) > 0)

    def test_deterministic(self):
        g1 = build_perturbed_grid(4, seed=2)
        g2 = build_perturbed_grid(4, seed=2)
        np.testing.assert_array_equal(g1.nodes, g2.nodes)

    def test_invalid_level(self):
        with pytest.raises(GridError):
            build_perturbed_grid(0, seed=0)


class TestLocate:
    def test_half_open_convention(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        # node hits belong to the cell ending there; left endpoint to cell 1
        np.testing.assert_array_equal(
            locate_cells_1d(nodes, np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
            [1, 1, 1, 2, 2, 3],
        )

    def test_out_of_domain(self):
        nodes = np.array([0.0, 1.0])
        with pytest.raises(OutOfDomainError):
            locate_cells_1d(nodes, np.array([-0.1]))
        with pytest.raises(OutOfDomainError):
            locate_cells_1d(nodes, np.array([1.1]))
        # NaN fails every comparison, so it must be rejected explicitly
        with pytest.raises(OutOfDomainError):
            locate_cells_1d(nodes, np.array([0.5, np.nan]))
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

    @given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_locate_invariant(self, seed, frac):
        g = build_random_grid(0.0, 1.0, 12, seed=seed)
        x = frac  # in [0, 1] by construction
        i = int(locate_cells_1d(g.nodes, np.array([x]))[0])
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

    def test_function_round_trip(self):
        grid = TensorGrid((build_uniform_grid(0, 1, 3),))
        gf = GridFunction(grid, np.array([1.0, 2.0, 3.0, 4.0]))
        back = GridFunction.from_dict(gf.to_dict())
        np.testing.assert_array_equal(back.values, gf.values)
        np.testing.assert_array_equal(back.grid.axes[0].nodes, grid.axes[0].nodes)

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
