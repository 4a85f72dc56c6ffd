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
sub-stencil nodes cluster. Rows go in chunks of a fixed byte budget, so
memory does not grow with the number of cells. The samples of all distinct
cells and offsets on an axis come from one derivative_samples call at one
cached Gauss rule. Indicators are computed once per distinct cell at level
r; higher recursion levels reuse them by index shifts.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import GridFunction, value_blocks


# Byte budget of one chunk of the (c, (m*q)^n) tensor in _indicator_values:
# rows are processed in chunks, so its temporaries do not grow with c.
_CHUNK_BYTES = 1 << 20


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
    ratio = np.asarray(unit, dtype=np.float64) / scale
    out *= (ratio ** np.arange(m)[:, None])[:, None, None, :]
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


def _axis_table_cache(gf: GridFunction, axis: int, cells: np.ndarray, r: int,
                      pts: np.ndarray):
    """Per distinct 1-D cell on an axis: basis-derivative samples per offset k.

    One batched call of derivative_samples for all nc cells and r offsets, at
    the Gauss points pts of each cell. Returns (sam[nc, r, r+1, q, r+1],
    scale[nc]): derivatives with respect to x / h, h the axis' largest gap,
    and half / h, the part of (h / half)^(2 l - 1) the squares do not carry.
    """
    ax = gf.grid.axes[axis]
    nc, q = cells.size, pts.size
    subs = ax.nodes[cells[:, None, None] - r + np.arange(r)[:, None] + np.arange(r + 1)]
    a, b = ax.nodes[cells - 1], ax.nodes[cells]
    half = 0.5 * (b - a)
    x = a[:, None] + half[:, None] * (pts + 1.0)
    sam = derivative_samples(subs.reshape(nc * r, r + 1), np.repeat(x, r, axis=0), ax.h_max)
    return sam.reshape(nc, r, r + 1, q, r + 1), half / ax.h_max


def _indicator_values(block: np.ndarray, sams, wts: np.ndarray) -> np.ndarray:
    """Weighted sums of squared derivatives of many interpolants, one per row c.

    block has shape (c, m, ..., m) with m samples per axis. Per axis, sams
    holds a pair (S, row): S[row] (c, m, q, m) are the basis-derivative
    samples of orders 0..m-1 at q Gauss points, gathered a chunk at a time;
    wts are the weights of _square_weights. Each axis is contracted once for
    all its orders by one batched matmul, so the block becomes every mixed
    derivative at every tensor Gauss point, (c, m*q, ..., m*q); only then is
    it squared, weighted and summed, one row at a time. Rows go in chunks of
    _CHUNK_BYTES of that tensor, so the temporaries do not grow with c.
    """
    c, n, m = block.shape[0], block.ndim - 1, block.shape[-1]
    step = max(1, _CHUNK_BYTES // (8 * wts.size))
    total = np.empty(c)
    with np.errstate(over="ignore"):    # inf indicators trigger the fallback
        for lo in range(0, c, step):
            rows = slice(lo, lo + step)
            T = block[rows]
            k = T.shape[0]
            # every term differentiates at least once, so any constant shift
            # is inert; centering makes constant data give exactly zero
            T = T - T.mean(axis=tuple(range(1, n + 1)), keepdims=True)
            for S, row in sams:
                # contract the leading sample axis; its (order, point) axis
                # goes last, so after n axes the axes are back in order
                T = (T.reshape(k, m, -1).transpose(0, 2, 1)
                     @ S[row[rows]].reshape(k, -1, m).transpose(0, 2, 1))
            T = T.reshape(k, -1)
            # a sum per row, so no row's bits depend on its chunk (a gemv's do)
            total[rows] = np.einsum("ij,ij,j->i", T, T, wts)
    return total


def indicator_tables(gf: GridFunction, cells: np.ndarray, r: int) -> np.ndarray:
    """Indicator tables for many cells, each built once per distinct cell.

    cells has shape (npts, n) and must have full 2r windows; the result has
    shape (npts,) + (r,)*n, entry k the indicator of base sub-stencil k
    (nodes i_j - r + k_j .. i_j + k_j on axis j of cell i).
    """
    n = gf.grid.ndim
    pts, gw = gauss_rule(r + 1)
    wts = _square_weights(r + 1, tuple(gw), n)
    flat = np.ravel_multi_index(tuple(cells.T), gf.grid.shape)
    uniq, inverse = np.unique(flat, return_inverse=True)
    distinct = np.stack(np.unravel_index(uniq, gf.grid.shape), axis=1)
    caches, rows = [], []
    for a in range(n):
        axis_cells, row = np.unique(distinct[:, a], return_inverse=True)
        caches.append(_axis_table_cache(gf, a, axis_cells, r, pts))
        rows.append(row.ravel())
    scale = np.prod([sc[row] for (_, sc), row in zip(caches, rows)], axis=0)
    tables = np.empty((uniq.size,) + (r,) * n)
    for k in product(range(r), repeat=n):
        block = value_blocks(gf, distinct - r + np.array(k), r + 1)
        sams = [(sam[:, ka], row) for (sam, _), row, ka in zip(caches, rows, k)]
        tables[(slice(None),) + k] = _indicator_values(block, sams, wts) * scale
    return tables[inverse.ravel()]
