"""A cell's basis-derivative samples, indicator table and answer do not
depend on the other stencils, cells or points of the call that built them,
nor on what the grid function was asked before.

The calls here span more than 1,000 cells: below a few hundred stencils
numpy's array power gave the same bits at any length, so small builds
could not show the difference.
"""
import numpy as np

from pweno.batch import interpolate_batch
from pweno.grid import GridFunction, TensorGrid, build_random_grid
from pweno.smoothness import derivative_samples, indicator_tables
from pweno.weno import WenoParams, interpolate_nd

J = 4096


def random_gf_1d(seed):
    grid = TensorGrid((build_random_grid(0.0, 1.0, J, seed=seed),))
    return GridFunction(grid, np.random.default_rng(seed + 1).normal(size=grid.shape))


def test_samples_do_not_depend_on_company():
    # 12,276 random stencils sampled at once, then the first 93 alone
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.uniform(0.0, 1.0, size=(12_276, 4)), axis=1)
    points = nodes[:, 1:2] + rng.uniform(0.0, 1.0, size=(12_276, 4)) * (nodes[:, 2:3] - nodes[:, 1:2])
    unit = rng.uniform(0.5, 2.0, 12_276) * (nodes[:, -1] - nodes[:, 0])
    whole = derivative_samples(nodes, points, unit)
    np.testing.assert_array_equal(derivative_samples(nodes[:93], points[:93], unit[:93]),
                                  whole[:93])


def test_cell_table_does_not_depend_on_company():
    # every cell of a 4,096-cell grid with a full window, built in one call,
    # then in calls of 31 cells on a fresh grid function
    r = 3
    gf = random_gf_1d(3)
    cells = np.arange(r, J - r + 2)[:, None]
    whole = indicator_tables(gf, cells, r)
    again = GridFunction(gf.grid, gf.values)
    parts = np.concatenate([indicator_tables(again, cells[lo:lo + 31], r)
                            for lo in range(0, len(cells), 31)])
    np.testing.assert_array_equal(parts, whole)


def test_fresh_single_point_calls_equal_one_batch_call():
    # single-point calls on a fresh grid function build one cell per call;
    # one batch call on another fresh copy builds all of them at once
    r = 3
    gf = random_gf_1d(7)
    nodes = gf.grid.axes[0].nodes
    rng = np.random.default_rng(8)
    i = rng.permutation(np.arange(r, J - r + 2))
    pts = nodes[i - 1] + rng.uniform(0.0, 1.0, i.size) * (nodes[i] - nodes[i - 1])
    params = WenoParams(r=r)
    single = [interpolate_nd(gf, p, params) for p in pts]
    batch = interpolate_batch(GridFunction(gf.grid, gf.values), pts, params)
    np.testing.assert_array_equal(batch.values, [s.value for s in single])
    np.testing.assert_array_equal(batch.fallback, [s.linear_fallback for s in single])
