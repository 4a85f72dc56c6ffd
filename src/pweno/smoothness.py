"""Smoothness indicators for base sub-stencil interpolants.

The indicator of a sub-stencil polynomial p over the central cell G is

    I = sum_{l in J} (prod_j h_j^(2 l_j - 1)) * integral_G (d^l p)^2 dx,

with J = {0..r}^n \\ {0} and h_j the per-axis mesh width. It is computed in
the cell's own coordinates u_j = (x_j - mid_j) / half_j in [-1, 1], where
each term is the same dimensionless number

    prod_j (h_j / half_j)^(2 l_j - 1) * integral_[-1,1]^n (d_u^l p)^2 du,

so the indicators are invariant under x -> s x + d (bit for bit when s is a
power of two) and stay finite at any scale the grid can represent. Per axis,
basis-derivative samples of every order at the Gauss-Legendre points, in
units of u, are applied to the sample block in one batched matmul; after
all axes the block holds every mixed derivative d_u^l p at every tensor
Gauss point (exact: the integrands are polynomials of per-axis degree
<= 2r). Derivatives are applied before squaring; folding the squares into
Gram matrices first loses the indicator to cancellation when sub-stencil
nodes cluster. Rows are taken in chunks of a fixed byte budget, so memory
does not grow with the number of cells. The samples of all distinct cells
and offsets on an axis come from one batched call of
stencil.derivative_samples at one cached Gauss rule. Indicators are computed
once per distinct cell at level r; higher recursion levels reuse them by index
shifts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import CellIndex, GridFunction, value_blocks
from .stencil import StencilND, derivative_samples, resolve_stencil


class SmoothnessError(ValueError):
    pass


# Byte budget of one chunk of the (c, (m*q)^n) tensor in _indicator_values:
# rows are processed in chunks, so its temporaries do not grow with c.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class IndicatorParams:
    """q: Gauss-Legendre points per axis (default r+1, the exactness minimum);
    local_h: use the sub-stencil's own max gap instead of the global per-axis
    mesh width (off by default)."""

    q: int | None = None
    local_h: bool = False

    def __post_init__(self) -> None:
        q = self.q
        if q is not None and (isinstance(q, bool) or not isinstance(q, (int, np.integer))
                              or q < 1):
            raise SmoothnessError(f"need an integer q >= 1 or None, got {q!r}")

    def resolve_q(self, r: int) -> int:
        q = self.q if self.q is not None else r + 1
        if q < r + 1:
            raise SmoothnessError(f"q={q} too small: need q >= r+1 = {r + 1}")
        return q


@dataclass(frozen=True)
class SmoothnessTable:
    """Indicators I^r_k for every base sub-stencil k in {0..r-1}^n."""

    r: int
    ndim: int
    entries: np.ndarray
    cell_bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.shape != (self.r,) * self.ndim:
            raise SmoothnessError(
                f"entries shape {entries.shape} does not match ({self.r},)*{self.ndim}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@lru_cache(maxsize=32)
def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per q.

    The arrays are shared by every caller, so they are read-only.
    """
    pts, wts = leggauss(q)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def _cell_samples(subs: np.ndarray, a: np.ndarray, b: np.ndarray, pts: np.ndarray):
    """Basis-derivative samples of stencils subs (c, m) at the Gauss points
    pts of their cells [a, b] (c,), in each cell's coordinate u; also the
    cells' half widths."""
    half = 0.5 * (b - a)
    x = a[:, None] + half[:, None] * (pts + 1.0)
    return derivative_samples(subs, x, half), half


def axis_derivative_samples(stencil_nodes, a: float, b: float, q: int):
    """Per-order basis-derivative values on one axis, in cell-local units.

    Returns (S, wts): S[m, p, j] is the m-th derivative, with respect to
    u = (x - (a + b) / 2) / ((b - a) / 2), of basis function j at Gauss
    point p of [a, b], for m = 0..degree; wts are the Gauss weights on
    u in [-1, 1].
    """
    nodes = np.asarray(stencil_nodes, dtype=np.float64)
    pts, wts = gauss_rule(q)
    sam, _ = _cell_samples(nodes[None], np.array([a], dtype=np.float64),
                           np.array([b], dtype=np.float64), pts)
    return sam[0], wts


def _axis_h(gf: GridFunction, axis: int, subs: np.ndarray, local_h: bool) -> np.ndarray:
    """Mesh width of each sub-stencil subs[..., :] on an axis."""
    if local_h:
        return np.diff(subs, axis=-1).max(axis=-1)
    return np.full(subs.shape[:-1], gf.grid.axes[axis].h_max)


def _axis_table_cache(gf: GridFunction, axis: int, cells: np.ndarray, r: int,
                      pts: np.ndarray, local_h: bool):
    """Per distinct 1-D cell on an axis: basis-derivative samples per offset k.

    One batched call of derivative_samples for all nc cells and r offsets.
    Returns (sam[nc, r, r+1, q, r+1], h[nc, r]) in cell-local units:
    derivatives with respect to the cell coordinate u, and h divided by the
    cell's half width.
    """
    nodes = gf.grid.axes[axis].nodes
    nc, q = cells.size, pts.size
    subs = nodes[cells[:, None, None] - r + np.arange(r)[:, None] + np.arange(r + 1)]
    a, b = nodes[cells - 1], nodes[cells]
    sam, half = _cell_samples(subs.reshape(nc * r, r + 1), np.repeat(a, r),
                              np.repeat(b, r), pts)
    hs = _axis_h(gf, axis, subs, local_h) / half.reshape(nc, r)
    return sam.reshape(nc, r, r + 1, q, r + 1), hs


def _indicator_values(block: np.ndarray, sams, wts, hs) -> np.ndarray:
    """Indicators of many sub-stencil interpolants, one per row c.

    block has shape (c, m, ..., m) with m samples per axis; per axis,
    sams[axis] (c, m, q, m) holds the basis-derivative samples of orders
    0..m-1, wts[axis] (q,) the quadrature weights and hs[axis] (c,) the
    mesh width. Each axis is contracted once for all its orders: one batched
    matmul turns its m samples into m*q (order, Gauss point) values, so the
    block becomes every mixed derivative of the interpolant at every tensor
    Gauss point, shape (c, m*q, ..., m*q). Only then is it squared; the
    Gauss points are integrated out and each order scaled by its
    (h / half)^(2 l - 1). Rows go in chunks of _CHUNK_BYTES of that tensor,
    so the temporaries do not grow with c.
    """
    c, n, m, q = block.shape[0], block.ndim - 1, block.shape[-1], wts[0].size
    step = max(1, _CHUNK_BYTES // (8 * (m * q) ** n))
    powers = 2 * np.arange(m) - 1
    tensor_wts = wts[0]
    for w in wts[1:]:
        tensor_wts = np.multiply.outer(tensor_wts, w).ravel()
    # (row, orders..., Gauss points...) from (row, (order, point) per axis)
    by_order = [0] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    total = np.empty(c)
    with np.errstate(over="ignore"):    # inf indicators trigger the fallback
        for lo in range(0, c, step):
            rows = slice(lo, lo + step)
            T = block[rows]
            k = T.shape[0]
            # every term differentiates at least once, so any constant shift
            # is inert; centering makes constant data give exactly zero
            T = T - T.mean(axis=tuple(range(1, n + 1)), keepdims=True)
            for S in sams:
                # contract the leading sample axis; its (order, point) axis
                # goes last, so after n axes the axes are back in order
                T = (T.reshape(k, m, -1).transpose(0, 2, 1)
                     @ S[rows].reshape(k, m * q, m).transpose(0, 2, 1))
            sq = (T * T).reshape((k,) + (m, q) * n).transpose(by_order)
            # a matmul per row, so no row's result depends on its chunk
            per_order = (sq.reshape(k, m ** n, q ** n) @ tensor_wts).reshape((k,) + (m,) * n)
            for a, h in enumerate(hs):
                per_order *= (h[rows, None] ** powers).reshape(
                    (k,) + (1,) * a + (m,) + (1,) * (n - 1 - a))
            per_order[(slice(None),) + (0,) * n] = 0.0
            total[rows] = per_order.reshape(k, -1).sum(axis=1)
    return total


def indicator_tables(gf: GridFunction, cells: np.ndarray, r: int,
                     params: IndicatorParams) -> np.ndarray:
    """Indicator tables for many cells, each built once per distinct cell.

    cells has shape (npts, n) and must have full 2r windows; the result has
    shape (npts,) + (r,)*n, entry k the indicator of base sub-stencil k.
    """
    n = gf.grid.ndim
    pts, gw = gauss_rule(params.resolve_q(r))
    flat = np.ravel_multi_index(tuple(cells.T), gf.grid.shape)
    uniq, inverse = np.unique(flat, return_inverse=True)
    distinct = np.stack(np.unravel_index(uniq, gf.grid.shape), axis=1)
    caches, rows = [], []
    for a in range(n):
        axis_cells, row = np.unique(distinct[:, a], return_inverse=True)
        caches.append(_axis_table_cache(gf, a, axis_cells, r, pts, params.local_h))
        rows.append(row.ravel())
    tables = np.empty((uniq.size,) + (r,) * n)
    for k in product(range(r), repeat=n):
        block = value_blocks(gf, distinct - r + np.array(k), r + 1)
        sams = [sam[row, ka] for (sam, _), row, ka in zip(caches, rows, k)]
        hs = [h[row, ka] for (_, h), row, ka in zip(caches, rows, k)]
        tables[(slice(None),) + k] = _indicator_values(block, sams, [gw] * n, hs)
    return tables[inverse.ravel()]


def cell_bounds(gf: GridFunction, cell: CellIndex) -> tuple[tuple[float, float], ...]:
    return tuple((float(ax.nodes[i - 1]), float(ax.nodes[i]))
                 for ax, i in zip(gf.grid.axes, cell.i))


def smoothness_indicator(
    gf: GridFunction, stencil: StencilND, cell: CellIndex, params: IndicatorParams
) -> float:
    """Indicator of one sub-stencil interpolant over the central cell."""
    r = stencil.axes[0].r
    if any(st.m != st.r or st.r != r for st in stencil.axes):
        raise SmoothnessError("sub-stencil width must be r+1 on every axis")
    q = params.resolve_q(r)
    node_lists, block = resolve_stencil(gf, stencil)
    sams, wts, hs = [], [], []
    for axis, ((a, b), nodes) in enumerate(zip(cell_bounds(gf, cell), node_lists)):
        S, w = axis_derivative_samples(nodes, a, b, q)
        sams.append(S[None])
        wts.append(w)
        hs.append(_axis_h(gf, axis, nodes[None], params.local_h) / (0.5 * (b - a)))
    return float(_indicator_values(block[None], sams, wts, hs)[0])


def build_table(
    gf: GridFunction, cell: CellIndex, r: int, params: IndicatorParams
) -> SmoothnessTable:
    """Indicators for all r^n base sub-stencils around a cell."""
    for i, ax in zip(cell.i, gf.grid.axes):
        if i - r < 0 or i + r - 1 > ax.n_cells:
            raise SmoothnessError("full 2r window unavailable around the cell")
    entries = indicator_tables(gf, np.array([cell.i]), r, params)[0]
    return SmoothnessTable(r=r, ndim=gf.grid.ndim, entries=entries,
                           cell_bounds=cell_bounds(gf, cell))
