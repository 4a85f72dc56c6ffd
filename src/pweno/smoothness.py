"""Smoothness indicators of the base sub-stencil interpolants.

indicator_tables is the one way to get them: for many query cells at once it
returns, per cell, the indicator of each of the r^n base sub-stencils. The
indicator of a sub-stencil polynomial p over the central cell G is

    I = sum_{l in J} (prod_j h_j^(2 l_j - 1)) * integral_G (d^l p)^2 dx,

with J = {0..r}^n \\ {0} and h_j the largest gap of the grid on axis j. It
is computed in the cell's own coordinates u_j = (x_j - mid_j) / half_j in
[-1, 1], where each term is the same dimensionless number

    prod_j (half_j / h_j) * integral_[-1,1]^n (prod_j h_j^l_j d_x^l p)^2 du,

so the indicators are invariant under x -> s x + d (bit for bit when s is a
power of two) and stay finite at any scale the grid can represent. Per axis,
basis-derivative samples of every order in units of the axis' h, at the
q = r + 1 Gauss-Legendre points (exact: the integrands are polynomials of
per-axis degree <= 2r), are applied to the sample block in one batched
matmul. After all axes the block holds every h^l d_x^l p at every tensor
Gauss point; one weighted sum of squares per row, times one factor half/h
per axis, gives the indicator. The Gauss weights and the exclusion of l = 0
live in one cached weight vector. Derivatives are applied before squaring:
Gram matrices of the squares lose the indicator to cancellation when
sub-stencil nodes cluster. A row is one (distinct cell, offset k) pair, and
one kernel pass covers every row of a call. Rows go in chunks of a fixed
byte budget, and a chunk gathers only its own rows' sample blocks, with
the engine's window gather grid.blocks, so memory does not grow with the
number of cells; blocks returns window axes first, so a chunk transposes
its blocks to the rows-first order of the kernel's batched matmuls. The
samples of every sub-stencil on every axis come from one
derivative_samples call at one cached Gauss rule. Indicators are computed
once per distinct cell at level r; higher recursion levels reuse them by
index shifts. Each grid function remembers the tables of the cells it was
queried at, per r, with one row index over its cells, so a later call
gathers its points' row numbers and builds only the cells no earlier call
on it built (_table_rows); the engine reads their rows in place.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import GridError, GridFunction, _check_count, _check_window, blocks


# Byte budget of one chunk of the (c, (m*q)^n) tensor in _indicator_values:
# rows are processed in chunks, so its temporaries do not grow with c. A
# chunk peaks near twice this (a contraction's input and output coexist);
# one call fills its chunks with all r^n offsets, so a small budget keeps
# calls on few cells small.
_CHUNK_BYTES = 1 << 19


@lru_cache(maxsize=32)
def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per q.

    The arrays are shared by every caller, so they are read-only.
    """
    pts, wts = leggauss(q)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def derivative_samples(nodes, points, unit) -> np.ndarray:
    """Every derivative of every Lagrange basis function, for many stencils.

    nodes (c, m) holds c stencils of m distinct nodes, points (c, p) their
    sample points and unit (c,) or a scalar their length unit. D[s, l, i, j]
    of the (c, m, p, m) result is the l-th derivative, with respect to
    x / unit[s], of basis j of stencil s at points[s, i]. Each stencil works
    in its own coordinate t = (x - center) / scale, nodes spanning [-1, 1];
    only unit / scale reaches the result.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    c, m = nodes.shape
    # stencils on the last axis, so every step runs over c contiguous values
    nodes_t = np.ascontiguousarray(nodes.T)
    center = nodes_t.mean(axis=0)
    scale = np.maximum(nodes_t.max(axis=0) - nodes_t.min(axis=0), 1.0e-300) / 2.0
    t = (nodes_t - center) / scale
    # Newton coefficients of the basis: divided differences of the identity
    table = np.broadcast_to(np.eye(m)[:, :, None], (m, m, c))
    coeffs = [table[0]]
    for j in range(1, m):
        table = (table[1:] - table[:-1]) / (t[j:] - t[:-j])[:, None, :]
        coeffs.append(table[0])
    # monomial coefficients mono[power, basis, s]: multiply by (t - t_a), add
    mono = coeffs[m - 1][None]
    for a in range(m - 2, -1, -1):
        new = np.zeros((mono.shape[0] + 1, m, c))
        new[1:] += mono
        new[:-1] -= t[a] * mono
        new[0] += coeffs[a]
        mono = new
    # every derivative order by Horner's rule, in place in its slice of out
    u = ((points.T - center) / scale)[:, None, :]
    out = np.empty((m, points.shape[1], m, c))
    for order in range(m):
        acc = out[order]
        acc[...] = mono[-1]
        for power in range(m - order - 2, -1, -1):
            acc *= u
            acc += mono[power]
        mono = mono[1:] * np.arange(1, m - order)[:, None, None]
    # powers of ratio by repeated products: the bits of numpy's power with
    # an array exponent depend on the array's length, a product's do not
    ratio = np.asarray(unit, dtype=np.float64) / scale
    power = ratio
    for order in range(1, m):
        out[order] *= power
        power = power * ratio
    return out.transpose(3, 0, 1, 2)


@lru_cache(maxsize=32)
def _square_weights(m: int, gw: tuple[float, ...], n: int) -> np.ndarray:
    """Weights of _indicator_values' (m*q)^n tensor: the product over axes of
    ones(m) (x) gw, all-orders-zero entries exactly 0; shared, so read-only."""
    wts = axis = np.tile(gw, m)
    for _ in range(n - 1):
        wts = np.multiply.outer(wts, axis).ravel()
    wts.reshape((m, len(gw)) * n)[(0, slice(None)) * n] = 0.0
    wts.setflags(write=False)
    return wts


def _sub_stencil_samples(gf: GridFunction, cells: np.ndarray, r: int, pts: np.ndarray):
    """Basis-derivative samples of every axis' sub-stencils, from one call.

    On axis a, each distinct 1-D cell i of cells[:, a] has r sub-stencils,
    k = 0..r-1 with nodes i - r + k .. i + k; one derivative_samples call
    samples all of them, on every axis, at the Gauss points pts of each
    cell, with respect to x / h, h the axis' largest gap. Returns
    (S, first, scale): S[first[a][p] + k] (r+1, q, r+1) holds the samples of
    sub-stencil k on axis a of cell p, and scale[p] is the product over axes
    of half / h, the part of (h / half)^(2 l - 1) the squares do not carry.
    """
    subs, xs, units, first, scales = [], [], [], [], []
    offset = 0
    for ax, col in zip(gf.grid.axes, cells.T):
        axis_cells, row = np.unique(col, return_inverse=True)
        row = row.ravel()
        first.append(offset + r * row)
        offset += r * axis_cells.size
        subs.append(blocks(ax.nodes, (axis_cells[:, None] - r + np.arange(r)).reshape(-1, 1),
                           r + 1).T)
        a, b = ax.nodes[axis_cells - 1], ax.nodes[axis_cells]
        half = 0.5 * (b - a)
        xs.append(np.repeat(a[:, None] + half[:, None] * (pts + 1.0), r, axis=0))
        units.append(np.full(len(subs[-1]), ax.h_max))
        scales.append((half / ax.h_max)[row])
    S = derivative_samples(np.concatenate(subs), np.concatenate(xs), np.concatenate(units))
    return S, first, np.prod(scales, axis=0)


def _indicator_values(gf: GridFunction, cells: np.ndarray, r: int, S: np.ndarray,
                      first: list, wts: np.ndarray) -> np.ndarray:
    """Weighted sums of squared derivatives of every sub-stencil interpolant.

    One row per (cell, offset k) pair: the result has shape (nc, r**n), k in
    lexicographic order. S and first come from _sub_stencil_samples; wts are
    the weights of _square_weights. Rows go in chunks of _CHUNK_BYTES of the
    larger of a row's two big temporaries, its contracted tensor below and
    its samples gathered from S, so memory does not grow with nc; a chunk
    gathers only its own rows' sub-stencil blocks of the grid values. Each
    axis is contracted once for all its orders by one batched matmul, so a
    block becomes every mixed derivative at every tensor Gauss point,
    (m*q, ..., m*q); only then is it squared, weighted and summed, one row
    at a time.
    """
    nc, n, m = cells.shape[0], cells.shape[1], r + 1
    per_cell = r ** n
    step = max(1, _CHUNK_BYTES // (8 * max(wts.size, np.prod(S.shape[1:]))))
    offsets = np.indices((r,) * n).reshape(n, -1).T     # offset k of each row of a cell
    first_node = cells - r
    total = np.empty(nc * per_cell)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and NaN from inf * 0: fallback
        for lo in range(0, total.size, step):
            hi = min(lo + step, total.size)
            # rows lo..hi-1 lie in cells c0..c1-1, at rows among those cells' rows
            c0, c1 = lo // per_cell, (hi - 1) // per_cell + 1
            rows = slice(lo - c0 * per_cell, hi - c0 * per_cell)
            T = blocks(gf.values, (first_node[c0:c1, None] + offsets).reshape(-1, n)[rows], m)
            c = T.shape[-1]
            T = np.ascontiguousarray(T.reshape(-1, c).T)
            # every term differentiates at least once, so any constant shift
            # is inert; centering makes constant data give exactly zero
            T = T - T.mean(axis=1, keepdims=True)
            for fa, ka in zip(first, offsets.T):
                # contract the leading sample axis; its (order, point) axis
                # goes last, so after n axes the axes are back in order
                sam = S[(fa[c0:c1, None] + ka).ravel()[rows]]
                T = (T.reshape(c, m, -1).transpose(0, 2, 1)
                     @ sam.reshape(c, -1, m).transpose(0, 2, 1))
            T = T.reshape(c, -1)
            # a sum per row, so no row's bits depend on its chunk (a gemv's do)
            total[lo:hi] = np.einsum("ij,ij,j->i", T, T, wts)
    return total.reshape(nc, per_cell)


def _cell_tables(gf: GridFunction, flat: np.ndarray, r: int, out: np.ndarray) -> None:
    """Write the indicator tables (len(flat), r**n) of the cells with flat
    indices flat (distinct, sorted, with full 2r windows: callers check) into
    out: one _sub_stencil_samples and one _indicator_values call."""
    cells = np.stack(np.unravel_index(flat, gf.grid.shape), axis=1)
    pts, gw = gauss_rule(r + 1)
    wts = _square_weights(r + 1, tuple(gw), gf.grid.ndim)
    S, first, scale = _sub_stencil_samples(gf, cells, r, pts)
    np.multiply(_indicator_values(gf, cells, r, S, first, wts), scale[:, None], out=out)


def _table_rows(gf: GridFunction, cells: np.ndarray, r: int) -> tuple:
    """(gf's memo of table rows at r, at): cells[p] has row at[p], built first if new (see
    indicator_tables). Read-only; rows in at are never written again, so read them unlocked."""
    n = gf.grid.ndim
    flat = np.ravel_multi_index(tuple(cells.T), gf.grid.shape)
    with gf._memo_lock:
        rows, tables, count = gf._indicator_memo.get(r) or (
            np.full(gf.values.size, -1, dtype=np.intp), np.empty((0, r ** n)), 0)
        at = rows.take(flat)
        missing = at < 0
        if missing.any():
            # return_inverse keeps np.unique on its sort path: its hash path imports numpy.ma
            new, inverse = np.unique(flat[missing], return_inverse=True)
            end = count + new.size
            if end > len(tables):
                grown = np.empty((max(end, 2 * len(tables)), r ** n))
                grown[:count] = tables[:count]
                tables = grown
            _cell_tables(gf, new, r, tables[count:end])
            rows[new] = np.arange(count, end)
            gf._indicator_memo[r] = (rows, tables, end)
            at[missing] = count + inverse.ravel()
        return tables, at


def indicator_tables(gf: GridFunction, cells: np.ndarray, r: int) -> np.ndarray:
    """Indicator tables for many cells, each built once per grid function.

    cells is an integer array (npts, n), or empty; the result, a copy, has
    shape (npts,) + (r,)*n, entry k the indicator of base sub-stencil k
    (nodes i_j - r + k_j .. i_j + k_j on axis j of cell i). Bad r or cells
    raise GridError, and a cell without a full 2r window raises
    InsufficientStencilError as locate_cells does, for the first such cell
    by flat index; either leaves the memo untouched.

    gf remembers the table of every cell it was asked for at this r, for as
    long as it lives, so a call builds only the distinct cells no earlier
    call built. A cell's table does not depend on the other cells of its
    call, so the answer does not depend on what was asked before. The memo
    at r is (rows, tables, count): rows[flat] is the cell's row in tables,
    or -1 while it is unbuilt (8 B per grid node), and tables holds count
    built rows (distinct cells x r^n x 8 B) in room that doubles as it
    fills. Every call runs under gf's lock, so threads sharing gf build
    each cell once: a warm call is one gather of row numbers and one take,
    and a call with unbuilt cells first builds them and adds their rows.
    """
    _check_count(r, "r", 1)
    try:
        cells = np.asarray(cells)
        cells = cells.reshape(0, gf.grid.ndim).astype(np.intp) if cells.size == 0 else cells
    except ValueError:      # ragged nested lists
        cells = np.array(None)
    if cells.dtype.kind not in "iu" or cells.shape[1:] != (gf.grid.ndim,):
        raise GridError(f"cells must be an integer array of shape (npts, {gf.grid.ndim})")
    if not ((cells >= r) & (cells <= gf.grid._sizes - r)).all():
        for axis, i in enumerate(cells[np.lexsort(cells.T[::-1])].T):     # flat-index order
            _check_window(gf.grid, axis, i, r)
    tables, at = _table_rows(gf, cells, r)
    return tables.take(at, axis=0).reshape((-1,) + (r,) * gf.grid.ndim)
