"""Independent scalar reference for the WENO engine, used only by the tests.

One query point at a time, the plain way: Neville evaluation of each
sub-stencil block, a dict-keyed Aitken-Neville recursion over index tuples,
the classical and linear methods as separate branches, and a scalar
normalization. It shares with pweno only what its own tests pin
independently: cell location (test_grid), the sub-stencil block lookup
resolve_stencil (the basis-product oracle in test_stencil), the indicator
table (sympy and polyfit oracles in test_smoothness), the pair and optimal
weights (closed forms and path enumeration in test_weights) and WenoParams'
eps and t (test_weno). It shares none of the engine's gather, base values,
recursion or normalization.

Also here: the smoothness indicator by its definition, through numpy's
polynomial routines and nothing of pweno.stencil; the closed-form midpoint
weights and the small helpers that only the tests use.
"""
from __future__ import annotations

from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

from pweno.grid import CellIndex, GridFunction, locate_cell
from pweno.smoothness import SmoothnessError, SmoothnessTable, build_table
from pweno.stencil import Stencil1D, StencilError, StencilND, resolve_stencil
from pweno.weights import (
    OptimalWeights,
    WeightError,
    WeightPair,
    classical_optimal_general,
    weight_pair_general,
)
from pweno.weno import WenoParams


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
        raise StencilError("nodes and values must be 1-D and of equal length >= 1")
    if nodes.size < 1:
        raise StencilError("need at least one node")
    if np.unique(nodes).size != nodes.size:
        raise StencilError("duplicate interpolation nodes")
    return float(_neville_last_axis(nodes, values, float(x_star)))


def tensor_lagrange_eval(gf: GridFunction, stencil: StencilND, x_star) -> float:
    """Tensor-product Lagrange interpolant of gf on a stencil, at x_star.

    Axes are collapsed one at a time (last axis first); equivalent to the flat
    product-basis sum but O((m+1)^n) instead of O((m+1)^{2n}).
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    node_lists, block = resolve_stencil(gf, stencil)
    if x_star.size != len(node_lists):
        raise StencilError("query dimension does not match stencil")
    out = block
    for axis in range(len(node_lists) - 1, -1, -1):
        out = _neville_last_axis(node_lists[axis], out, float(x_star[axis]))
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

def midpoint_weight_pair(r: int, l: int, k: int) -> WeightPair:
    """Closed-form pair weights for uniform spacing at the cell midpoint."""
    if not r <= l <= 2 * r - 2:
        raise WeightError(f"level l={l} out of range [{r}, {2 * r - 2}]")
    if not 0 <= k <= 2 * r - 2 - l:
        raise WeightError(f"index k={k} out of range [0, {2 * r - 2 - l}] at level {l}")
    c_keep = (2 * (l - r + k + 1) + 1) / (2 * (l + 1))
    return WeightPair(float(c_keep), float(1.0 - c_keep))


def classical_optimal_midpoint(r: int) -> OptimalWeights:
    """C^r_k = binom(2r, 2k+1) / 2^(2r-1), k = 0..r-1."""
    if r < 1:
        raise WeightError(f"need r >= 1, got {r}")
    c = np.array([comb(2 * r, 2 * k + 1) for k in range(r)], dtype=np.float64)
    return OptimalWeights(c / 2.0 ** (2 * r - 1))


def tensor_weight(per_axis) -> float:
    """Product of per-axis scalar weights."""
    out = 1.0
    for w in per_axis:
        out *= float(w)
    return out


def level_lookup(table: SmoothnessTable, l: int, k, v) -> float:
    """Level-l indicator: I^l_{k,k+v} = I^r_{k + (l-(r-1))*v}."""
    r = table.r
    k = tuple(int(c) for c in np.atleast_1d(k))
    v = tuple(int(c) for c in np.atleast_1d(v))
    if len(k) != table.ndim or len(v) != table.ndim:
        raise SmoothnessError("k and v must have one component per axis")
    if not r <= l <= 2 * r - 2:
        raise SmoothnessError(f"level l={l} out of range [{r}, {2 * r - 2}]")
    shift = l - (r - 1)
    idx = []
    for kj, vj in zip(k, v):
        if not 0 <= kj <= 2 * r - 2 - l:
            raise SmoothnessError(f"k component {kj} out of range at level {l}")
        if vj not in (0, 1):
            raise SmoothnessError("v components must be 0 or 1")
        idx.append(kj + shift * vj)
    return float(table.entries[tuple(idx)])


# --- the scalar engine ------------------------------------------------------

class Reference(NamedTuple):
    value: float
    cell: CellIndex
    base_values: np.ndarray
    linear_fallback: bool
    values: dict       # progressive only: values[l][j], as in NevilleState
    weights: dict      # progressive only: weights[(l, j)][v]


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
    cell = locate_cell(gf.grid, x_star, r=r)
    windows = [gf.grid.axes[a].nodes[cell.i[a] - r : cell.i[a] + r] for a in range(n)]
    base = np.empty((r,) * n)
    for k in product(range(r), repeat=n):
        st = StencilND(tuple(Stencil1D(i=cell.i[a], r=r, k=k[a], m=r) for a in range(n)))
        base[k] = tensor_lagrange_eval(gf, st, x_star)

    if params.method == "linear":
        st = StencilND(tuple(Stencil1D(i=cell.i[a], r=r, k=0, m=2 * r - 1) for a in range(n)))
        return Reference(tensor_lagrange_eval(gf, st, x_star), cell, base, False, {}, {})

    if smoothness_override is not None:
        entries = np.broadcast_to(np.asarray(smoothness_override, dtype=np.float64), (r,) * n)
        table = SmoothnessTable(r=r, ndim=n, entries=np.array(entries),
                                cell_bounds=((0.0, 1.0),) * n)
    else:
        table = build_table(gf, cell, r, params.indicator)
    eps = params.resolve_eps(gf.grid)
    t = params.resolve_t()

    if params.method == "classical":
        per_axis = [classical_optimal_general(windows[a], float(x_star[a])).c for a in range(n)]
        C = per_axis[0]
        for a in range(1, n):
            C = np.multiply.outer(C, per_axis[a])
        omega, fell_back = _normalize(C, table.entries, eps, t)
        return Reference(float(np.sum(omega * base)), cell, base, fell_back, {}, {})

    vlist = list(product((0, 1), repeat=n))  # lexicographic
    level = {k: float(base[k]) for k in product(range(r), repeat=n)}
    values = {r: dict(level)}
    weights = {}
    fell_back = False
    for l in range(r, 2 * r - 1):
        nxt = {}
        for j in product(range(2 * r - 1 - l), repeat=n):
            pairs = [weight_pair_general(windows[a], l, j[a], float(x_star[a])) for a in range(n)]
            C = np.array([
                tensor_weight([(p.c_keep if va == 0 else p.c_shift) for p, va in zip(pairs, v)])
                for v in vlist
            ])
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
