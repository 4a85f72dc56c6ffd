"""Independent scalar reference for the WENO engine, used only by the tests.

One query point at a time, the plain way: each sub-stencil block sliced
from the grid function and evaluated by Neville's recurrence, a dict-keyed
Aitken-Neville recursion over index tuples with its own scalar pair weights,
the classical and linear methods as separate branches, and a scalar
normalization. It shares with pweno only what its own tests pin
independently: cell location (test_grid), the indicator tables (sympy and
polyfit oracles in test_smoothness) and WenoParams' eps and t (test_weno).
It shares none of the engine's gather, base values, pair weights, classical
optimal weights, recursion or normalization: its optimal weights sum the
pair-weight products over every root-to-leaf path of the triangle.

Also here: cell location one point at a time (locate_cells_loop), the
oracle of pweno.grid.locate_cells; Lagrange evaluation in exact rational
arithmetic (exact_lagrange_1d); the base sub-stencil values of many 1-D
points at once by Lagrange basis products (sub_stencil_values_1d); the
smoothness indicator by its definition, through numpy's polynomial routines
and nothing of pweno.smoothness; the closed-form midpoint weights and the
small helpers
that only the tests use, among them override_indicators, which substitutes
a fixed indicator table for the engine's.
"""
from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

import pweno.weno
from pweno.grid import (
    CellIndex,
    GridFunction,
    InsufficientStencilError,
    OutOfDomainError,
    locate_cells,
)
from pweno.smoothness import indicator_tables
from pweno.weno import WenoParams


# --- cell location, one point at a time -----------------------------------

def locate_cells_loop(grid, pts, r=None) -> np.ndarray:
    """The central cell of each query, one axis and one point at a time.

    On axis j, query x lies in cell i with x in (x_{i-1}, x_i], the first
    node in cell 1. The axes are checked in order. On each, any query
    outside the domain (NaN included) raises OutOfDomainError first; then,
    with r given, the first query whose cell lacks r nodes on either side
    raises InsufficientStencilError naming that cell.
    """
    cells = np.empty(np.shape(pts), dtype=np.intp)
    for axis, ax in enumerate(grid.axes):
        nodes = ax.nodes.tolist()
        col = [float(x) for x in np.asarray(pts)[:, axis]]
        if not all(nodes[0] <= x <= nodes[-1] for x in col):
            raise OutOfDomainError("query outside grid domain (or not a number)")
        col = [max(1, bisect_left(nodes, x)) for x in col]
        if r is not None:
            for i in col:
                if i - r < 0 or i + r - 1 > ax.n_cells:
                    raise InsufficientStencilError(
                        f"cell {i} lacks a full {2 * r}-node window on axis {axis} "
                        f"(axis has {ax.n_cells} cells)")
        cells[:, axis] = col
    return cells


# --- Lagrange evaluation by Neville's recurrence ---------------------------

def _neville_last_axis(nodes: np.ndarray, values: np.ndarray, x: float) -> np.ndarray:
    """Collapse the last axis of values by Neville's recurrence at x."""
    n = nodes.size
    T = [np.asarray(values[..., j], dtype=np.float64) for j in range(n)]
    for m in range(1, n):
        for j in range(n - m):
            denom = nodes[j] - nodes[j + m]
            T[j] = ((x - nodes[j + m]) * T[j] - (x - nodes[j]) * T[j + 1]) / denom
    return T[0]


def lagrange_eval_1d(nodes, values, x_star: float) -> float:
    """Value at x_star of the polynomial interpolating (nodes, values).

    Computed by Neville's recurrence. Extrapolation is permitted.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if nodes.ndim != 1 or nodes.shape != values.shape:
        raise ValueError("nodes and values must be 1-D and of equal length >= 1")
    if nodes.size < 1:
        raise ValueError("need at least one node")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("duplicate interpolation nodes")
    return float(_neville_last_axis(nodes, values, float(x_star)))


def exact_lagrange_1d(nodes, values, x_star) -> float:
    """Value at x_star of the polynomial interpolating (nodes, values), in
    exact rational arithmetic on the given floats, rounded once at the end.

    The Lagrange form, term by term in Fractions: no step rounds, so the
    result is the true value of the interpolant at x_star to half an ulp.
    """
    xs = [Fraction(float(v)) for v in nodes]
    x = Fraction(float(x_star))
    total = Fraction(0)
    for i, (xi, fi) in enumerate(zip(xs, values)):
        term = Fraction(float(fi))
        for j, xj in enumerate(xs):
            if j != i:
                term *= (x - xj) / (xi - xj)
        total += term
    return float(total)


def sub_stencil_values_1d(nodes, values, x, r: int) -> np.ndarray:
    """The r base sub-stencil interpolants of a 1-D grid function at many
    points x, shape (npts, r): entry k interpolates values on nodes
    i - r + k .. i + k of x's cell i, x in (x_{i-1}, x_i].

    Vectorized over the points, each as the Lagrange sum of value times
    basis product, with the cell from one searchsorted: no Neville step and
    nothing of pweno. Every point needs a full 2r window.
    """
    x = np.asarray(x, dtype=np.float64)
    first = np.maximum(np.searchsorted(nodes, x), 1) - r
    out = np.zeros((x.size, r))
    for k in range(r):
        idx = first[:, None] + k + np.arange(r + 1)
        w, f = nodes[idx], values[idx]
        for j in range(r + 1):
            basis = np.ones(x.size)
            for m in range(r + 1):
                if m != j:
                    basis *= (x - w[:, m]) / (w[:, j] - w[:, m])
            out[:, k] += f[:, j] * basis
    return out


def tensor_lagrange_eval(gf: GridFunction, starts, width: int, x_star) -> float:
    """Tensor-product Lagrange interpolant of gf at x_star on the stencil of
    width nodes per axis from node starts[j] on axis j.

    Axes are collapsed one at a time (last axis first); equivalent to the flat
    product-basis sum but O(width^n) instead of O(width^{2n}).
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    if x_star.size != gf.grid.ndim or len(starts) != gf.grid.ndim:
        raise ValueError("query and stencil need one entry per axis of the data")
    spans = [slice(s, s + width) for s in starts]
    if any(s < 0 or s + width > ax.nodes.size for s, ax in zip(starts, gf.grid.axes)):
        raise InsufficientStencilError(f"stencil from {tuple(starts)} leaves the grid")
    out = gf.values[tuple(spans)]
    for axis in range(gf.grid.ndim - 1, -1, -1):
        nodes = gf.grid.axes[axis].nodes[spans[axis]]
        out = _neville_last_axis(nodes, out, float(x_star[axis]))
    return float(out)


# --- the smoothness indicator by its definition ----------------------------

def indicator_definition(node_lists, block, bounds, hs) -> float:
    """sum over l != 0 of prod_j h_j^(2 l_j - 1) * integral_cell (d^l p)^2.

    p interpolates block on the tensor stencil node_lists (one node array
    per axis); bounds holds the cell's (a, b) and hs the mesh width per
    axis. Each axis is mapped to its own local s = (x - c) / w, the stencil
    spanning s in [-1, 1]. p's monomial coefficients in s come from polyfit
    (as many nodes as coefficients: interpolation), each derivative from
    polyder, and the integrals of s^k over the cell from polyint; the square
    is integrated as the quadratic form of those moments.
    """
    coef = np.asarray(block, dtype=np.float64)
    moments, widths = [], []
    for axis, (nodes, (a, b)) in enumerate(zip(node_lists, bounds)):
        nodes = np.asarray(nodes, dtype=np.float64)
        m = nodes.size
        c, w = 0.5 * (nodes[0] + nodes[-1]), 0.5 * (nodes[-1] - nodes[0])
        basis = P.polyfit((nodes - c) / w, np.eye(m), m - 1)     # (power, basis)
        coef = np.moveaxis(np.tensordot(basis, coef, axes=(1, axis)), 0, axis)
        sa, sb = (a - c) / w, (b - c) / w
        anti = [P.polyint(np.eye(2 * m - 1)[k]) for k in range(2 * m - 1)]
        mom = np.array([P.polyval(sb, q) - P.polyval(sa, q) for q in anti])
        moments.append(mom[np.add.outer(np.arange(m), np.arange(m))])
        widths.append(w)
    total = 0.0
    for orders in product(*(range(s) for s in coef.shape)):
        if not any(orders):
            continue
        d = coef
        for axis, l in enumerate(orders):
            d = P.polyder(d, l, axis=axis)
        form = d
        for axis, mom in enumerate(moments):
            k = d.shape[axis]
            form = np.moveaxis(np.tensordot(mom[:k, :k], form, axes=(1, axis)), 0, axis)
        term = float(np.sum(d * form))
        for h, w, l in zip(hs, widths, orders):
            term *= (h / w) ** (2 * l - 1)
        total += term
    return total


# --- closed forms and small helpers ----------------------------------------

def pair_weights(window, l: int, j: int, x: float) -> tuple[float, float]:
    """Affine pair weights (c_keep, c_shift) of node j at level l."""
    c_keep = (x - window[j + l + 1]) / (window[j] - window[j + l + 1])
    return float(c_keep), float(1.0 - c_keep)


def midpoint_weight_pair(r: int, l: int, k: int) -> tuple[float, float]:
    """Closed-form pair weights (c_keep, c_shift) for uniform spacing at the
    cell midpoint."""
    if not r <= l <= 2 * r - 2:
        raise ValueError(f"level l={l} out of range [{r}, {2 * r - 2}]")
    if not 0 <= k <= 2 * r - 2 - l:
        raise ValueError(f"index k={k} out of range [0, {2 * r - 2 - l}] at level {l}")
    c_keep = (2 * (l - r + k + 1) + 1) / (2 * (l + 1))
    return float(c_keep), float(1.0 - c_keep)


def classical_optimal_weights(window, x: float) -> np.ndarray:
    """Optimal weights of the r base sub-stencils at x: per base node, the
    sum over every path down the triangle from the top to it of the product
    of the pair weights taken on the way."""
    r = len(window) // 2
    out = np.zeros(r)
    # from the top, each level l = 2r-2 .. r keeps node j (0) or shifts to j+1 (1)
    for picks in product((0, 1), repeat=r - 1):
        weight, j = 1.0, 0
        for step, pick in enumerate(picks):
            weight *= pair_weights(window, 2 * r - 2 - step, j, x)[pick]
            j += pick
        out[j] += weight
    return out


def classical_optimal_midpoint(r: int) -> np.ndarray:
    """C^r_k = binom(2r, 2k+1) / 2^(2r-1), k = 0..r-1."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    c = np.array([comb(2 * r, 2 * k + 1) for k in range(r)], dtype=np.float64)
    return c / 2.0 ** (2 * r - 1)


@contextmanager
def override_indicators(table):
    """Within the block the engine uses table, shape (r,)*n, as the indicator
    table of every point, in place of the computed one: its table lookup
    (pweno.weno._table_rows) answers one memo row, table, for every point.
    A block in which the engine never called the lookup raises on exit, so
    a renamed lookup fails here by name instead of leaving the override unused."""
    real = pweno.weno._table_rows
    calls = []

    def fixed(gf, cells, r):
        calls.append(cells.shape[0])
        row = np.broadcast_to(np.asarray(table, dtype=np.float64), (r,) * gf.grid.ndim)
        return row.reshape(1, -1), np.zeros(cells.shape[0], dtype=np.intp)

    pweno.weno._table_rows = fixed
    try:
        yield
    finally:
        pweno.weno._table_rows = real
    if not calls:
        raise AssertionError("override_indicators: the engine never called "
                             "pweno.weno._table_rows")


def tensor_weight(per_axis) -> float:
    """Product of per-axis scalar weights."""
    out = 1.0
    for w in per_axis:
        out *= float(w)
    return out


def level_lookup(entries: np.ndarray, l: int, k, v) -> float:
    """Level-l indicator from the level-r table entries (shape (r,)*n):
    I^l_{k,k+v} = I^r_{k + (l-(r-1))*v}."""
    r, ndim = entries.shape[0], entries.ndim
    k = tuple(int(c) for c in np.atleast_1d(k))
    v = tuple(int(c) for c in np.atleast_1d(v))
    if len(k) != ndim or len(v) != ndim:
        raise ValueError("k and v must have one component per axis")
    if not r <= l <= 2 * r - 2:
        raise ValueError(f"level l={l} out of range [{r}, {2 * r - 2}]")
    shift = l - (r - 1)
    idx = []
    for kj, vj in zip(k, v):
        if not 0 <= kj <= 2 * r - 2 - l:
            raise ValueError(f"k component {kj} out of range at level {l}")
        if vj not in (0, 1):
            raise ValueError("v components must be 0 or 1")
        idx.append(kj + shift * vj)
    return float(entries[tuple(idx)])


# --- the scalar engine ------------------------------------------------------

class Reference(NamedTuple):
    value: float
    cell: CellIndex
    base_values: np.ndarray
    linear_fallback: bool
    values: dict       # progressive only: values[l][j] = NevilleState.values[l][j]
    weights: dict      # progressive only: weights[(l, j)][v] = NevilleState.weights[l][j + v]


def _normalize(C: np.ndarray, I: np.ndarray, eps: float, t: float):
    alpha = C / (eps + I) ** t
    s = alpha.sum()
    if s <= 0.0 or not np.isfinite(s):
        return C.copy(), True
    return alpha / s, False


def reference_interpolate(gf: GridFunction, x_star, params: WenoParams,
                          smoothness_override=None) -> Reference:
    """The configured method at one point, computed the plain scalar way."""
    r = params.r
    n = gf.grid.ndim
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    cell = CellIndex(tuple(locate_cells(gf.grid, x_star[None, :], r)[0]))
    windows = [gf.grid.axes[a].nodes[cell.i[a] - r : cell.i[a] + r] for a in range(n)]
    first = [i - r for i in cell.i]
    base = np.empty((r,) * n)
    for k in product(range(r), repeat=n):
        base[k] = tensor_lagrange_eval(gf, [f + kk for f, kk in zip(first, k)], r + 1, x_star)

    if params.method == "linear":
        return Reference(tensor_lagrange_eval(gf, first, 2 * r, x_star), cell, base, False, {}, {})

    if smoothness_override is not None:
        table = np.broadcast_to(np.asarray(smoothness_override, dtype=np.float64), (r,) * n)
    else:
        table = indicator_tables(gf, np.array([cell.i]), r)[0]
    eps = params.resolve_eps(gf.grid)
    t = params.resolve_t()

    if params.method == "classical":
        per_axis = [classical_optimal_weights(windows[a], float(x_star[a])) for a in range(n)]
        C = per_axis[0]
        for a in range(1, n):
            C = np.multiply.outer(C, per_axis[a])
        omega, fell_back = _normalize(C, table, eps, t)
        return Reference(float(np.sum(omega * base)), cell, base, fell_back, {}, {})

    vlist = list(product((0, 1), repeat=n))  # lexicographic
    level = {k: float(base[k]) for k in product(range(r), repeat=n)}
    values = {r: dict(level)}
    weights = {}
    fell_back = False
    for l in range(r, 2 * r - 1):
        nxt = {}
        for j in product(range(2 * r - 1 - l), repeat=n):
            pairs = [pair_weights(windows[a], l, j[a], float(x_star[a])) for a in range(n)]
            C = np.array([tensor_weight([p[va] for p, va in zip(pairs, v)]) for v in vlist])
            I = np.array([level_lookup(table, l, j, v) for v in vlist])
            omega, bad = _normalize(C, I, eps, t)
            fell_back = fell_back or bad
            nxt[j] = float(sum(
                w * level[tuple(jj + vv for jj, vv in zip(j, v))] for w, v in zip(omega, vlist)
            ))
            weights[(l, j)] = {v: float(w) for v, w in zip(vlist, omega)}
        level = nxt
        values[l + 1] = dict(level)
    return Reference(level[(0,) * n], cell, base, fell_back, values, weights)
