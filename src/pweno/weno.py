"""The WENO-2r interpolation engine: classical, progressive and linear.

One engine serves every dimension n and every entry point. It gathers the
2r-per-axis window of each query point into an array of shape
(npts, 2r, ..., 2r) and collapses it one axis at a time. Neville's
recurrence, whose steps are the affine pair weights, reduces each axis from
2r samples to the r base sub-stencil values. The linear method continues
those steps to the full 2r-point interpolant. The classical method forms one
convex combination of the r^n base values, with the optimal weights as
outer products of per-axis weights. The progressive method runs the
Aitken-Neville recursion from level r: each node combines its 2^n children
with indicator-modulated tensor pair weights until one level-(2r-1) value
remains. Indicators are computed once, at level r, and reused at every
level by index shifts. interpolate_nd is a one-point call of the engine
that can capture the recursion triangle; batch.interpolate_batch is the
many-point call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from numbers import Real
from typing import NamedTuple

import numpy as np

from .grid import CellIndex, GridFunction, locate_cells, value_blocks
from .smoothness import (
    IndicatorParams,
    SmoothnessTable,
    build_table,
    cell_bounds,
    indicator_tables,
)
from .weights import classical_optimal_general, pair_keep

METHODS = ("progressive", "classical", "linear")


class WenoError(ValueError):
    pass


class DiagnosticsNotCaptured(RuntimeError):
    pass


def _finite_positive(value) -> bool:
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


@dataclass(frozen=True)
class WenoParams:
    """r >= 2; epsilon_rule is "h_squared" (eps = h^2, h the global mesh width)
    or an explicit finite positive constant; t defaults to (r+1)/2."""

    r: int
    method: str = "progressive"
    epsilon_rule: str | float = "h_squared"
    t: float | None = None
    indicator: IndicatorParams = field(default_factory=IndicatorParams)

    def __post_init__(self) -> None:
        if isinstance(self.r, bool) or not isinstance(self.r, (int, np.integer)) or self.r < 2:
            raise WenoError(f"need an integer r >= 2, got {self.r!r}")
        if self.method not in METHODS:
            raise WenoError(f"unknown method {self.method!r}; choose from {METHODS}")
        if isinstance(self.epsilon_rule, str):
            if self.epsilon_rule != "h_squared":
                raise WenoError(f"unknown epsilon rule {self.epsilon_rule!r}")
        elif not _finite_positive(self.epsilon_rule):
            raise WenoError("explicit epsilon must be finite and positive")
        if self.t is not None and not _finite_positive(self.t):
            raise WenoError("exponent t must be finite and positive")

    def resolve_t(self) -> float:
        return float(self.t) if self.t is not None else (self.r + 1) / 2.0

    def resolve_eps(self, grid) -> float:
        if isinstance(self.epsilon_rule, str):
            h = float(grid.h)
            eps = h * h
            if not math.isfinite(eps):
                raise WenoError(f"eps = h^2 overflows for mesh width h = {h:g}")
            return eps
        return float(self.epsilon_rule)


@dataclass
class NevilleState:
    """Per-level values of the recursion and the weights used at each node.

    values[l][j] is p~^l_j(x*) for l = r..2r-1, j in {0..2r-1-l}^n.
    weights[(l, j)] maps each child v in {0,1}^n (lexicographic) to its
    nonlinear weight.
    """

    r: int
    ndim: int
    values: dict[int, dict[tuple, float]] = field(default_factory=dict)
    weights: dict[tuple, dict[tuple, float]] = field(default_factory=dict)


@dataclass
class InterpResult:
    value: float
    cell: CellIndex
    table: SmoothnessTable
    base_values: np.ndarray
    linear_fallback: bool = False
    neville: NevilleState | None = None


def capture_diagnostics(result: InterpResult) -> NevilleState:
    """Recursion triangle of a progressive evaluation (capture must be on)."""
    if result.neville is None:
        raise DiagnosticsNotCaptured(
            "interpolate was called without capture=True or with a non-progressive method"
        )
    return result.neville


def nonlinear_pair(linear_weights, indicators, eps: float, t: float):
    """Indicator-modulated normalization of sets of linear weights.

    The candidates run along the last axis; leading axes are independent
    sets. alpha_v = C_v / (eps + I_v)^t, omega_v = alpha_v / sum(alpha).
    Where the sum underflows to zero or is not finite, the linear weights
    are returned instead and the second return value is true.
    """
    C = np.asarray(linear_weights, dtype=np.float64)
    I = np.asarray(indicators, dtype=np.float64)
    alpha = C / (eps + I) ** t
    s = alpha.sum(axis=-1)
    bad = ~np.isfinite(s) | (s <= 0.0)
    omega = np.where(bad[..., None], C, alpha / np.where(bad, 1.0, s)[..., None])
    return omega, bad


class Evaluation(NamedTuple):
    """Engine output for npts points: values, cells (npts, n), base values
    and indicators (npts,) + (r,)*n (indicators None for the linear method
    without an override), fallback flags, and the captured triangle."""

    values: np.ndarray
    cells: np.ndarray
    base: np.ndarray
    indicators: np.ndarray | None
    fallback: np.ndarray
    state: NevilleState | None


def _neville(T: np.ndarray, windows, x, levels) -> np.ndarray:
    """Linear Neville steps at the given levels along every axis of T (npts, ...).

    The step at level l merges neighbours j and j+1 with the pair weights
    c_keep and 1 - c_keep of each point's window; steps 0..r-1 turn 2r
    samples into the r base values, steps r..2r-2 continue to the full
    interpolant.
    """
    for axis, (w, xa) in enumerate(zip(windows, x), start=1):
        lead = (slice(None),) * axis
        for l in levels:
            size = T.shape[axis] - 1
            keep = pair_keep(w, xa, l, np.arange(size))
            keep = keep.reshape(keep.shape[:1] + (1,) * (axis - 1) + (size,)
                                + (1,) * (T.ndim - axis - 1))
            T = keep * T[lead + (slice(None, -1),)] + (1.0 - keep) * T[lead + (slice(1, None),)]
    return T


def _outer(factors) -> np.ndarray:
    """Per-point outer product of per-axis arrays (npts, m_a)."""
    out = factors[0]
    for f in factors[1:]:
        out = out[..., None] * f.reshape(f.shape[:1] + (1,) * (out.ndim - 1) + f.shape[1:])
    return out


def _grid_entries(a: np.ndarray) -> dict[tuple, float]:
    return {k: float(a[k]) for k in np.ndindex(a.shape)}


def evaluate(
    gf: GridFunction,
    pts: np.ndarray,
    params: WenoParams,
    smoothness_override=None,
    capture: bool = False,
) -> Evaluation:
    """Run the configured method at query points pts of shape (npts, n).

    smoothness_override replaces the indicator table of every point (shape
    (r,)*n, broadcast). capture records the progressive recursion of the
    first point.
    """
    r, n, npts = params.r, gf.grid.ndim, pts.shape[0]
    weighted = params.method != "linear"
    if weighted:
        eps, t = params.resolve_eps(gf.grid), params.resolve_t()
    cells = locate_cells(gf.grid, pts, r)
    windows = [ax.nodes[cells[:, a, None] - r + np.arange(2 * r)]
               for a, ax in enumerate(gf.grid.axes)]
    x = pts.T
    base = _neville(value_blocks(gf, cells - r, 2 * r), windows, x, range(r))
    if smoothness_override is not None:
        ind = np.broadcast_to(np.asarray(smoothness_override, dtype=np.float64),
                              (npts,) + (r,) * n)
    elif weighted:
        ind = indicator_tables(gf, cells, r, params.indicator)
    else:
        ind = None
    fallback = np.zeros(npts, dtype=bool)
    state = None

    if params.method == "linear":
        top = _neville(base, windows, x, range(r, 2 * r - 1))
    elif params.method == "classical":
        C = _outer([classical_optimal_general(windows[a], x[a]).c for a in range(n)])
        omega, fallback = nonlinear_pair(C.reshape(npts, -1), ind.reshape(npts, -1), eps, t)
        top = np.einsum("pk,pk->p", omega, base.reshape(npts, -1))
    else:
        if capture:
            state = NevilleState(r=r, ndim=n)
            state.values[r] = _grid_entries(base[0])
        children = list(product((0, 1), repeat=n))   # lexicographic
        top = base
        for l in range(r, 2 * r - 1):
            shift = l - (r - 1)
            size = 2 * r - 1 - l
            keep = [pair_keep(windows[a], x[a], l, np.arange(size)) for a in range(n)]
            nxt = np.empty((npts,) + (size,) * n)
            for j in product(range(size), repeat=n):
                C = _outer([np.stack([k[:, ja], 1.0 - k[:, ja]], axis=1)
                            for k, ja in zip(keep, j)])
                # child j+v reuses the level-r indicator I^r_{j + shift*v}
                Ij = ind[(slice(None),) + tuple(slice(ja, ja + shift + 1, shift) for ja in j)]
                omega, bad = nonlinear_pair(C.reshape(npts, -1), Ij.reshape(npts, -1), eps, t)
                fallback |= bad
                kids = top[(slice(None),) + tuple(slice(ja, ja + 2) for ja in j)]
                nxt[(slice(None),) + j] = np.einsum("pv,pv->p", omega, kids.reshape(npts, -1))
                if state is not None:
                    state.weights[(l, j)] = dict(zip(children, omega[0].tolist()))
            top = nxt
            if state is not None:
                state.values[l + 1] = _grid_entries(top[0])
    return Evaluation(top.reshape(npts), cells, base, ind, fallback, state)


def interpolate_nd(
    gf: GridFunction,
    x_star,
    params: WenoParams,
    capture: bool = False,
    smoothness_override: np.ndarray | None = None,
) -> InterpResult:
    """Interpolate gf at one point with the configured method.

    smoothness_override is a test hook: an array of shape (r,)*n used in place
    of the computed indicator table. capture records the recursion triangle
    of the progressive method (see capture_diagnostics).
    """
    n = gf.grid.ndim
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    if x_star.size != n:
        raise WenoError(f"query has {x_star.size} coordinates, data has {n}")
    ev = evaluate(gf, x_star[None, :], params, smoothness_override,
                  capture and params.method == "progressive")
    cell = CellIndex(tuple(ev.cells[0]))
    if ev.indicators is None:
        table = build_table(gf, cell, params.r, params.indicator)
    else:
        table = SmoothnessTable(r=params.r, ndim=n, entries=np.array(ev.indicators[0]),
                                cell_bounds=cell_bounds(gf, cell))
    return InterpResult(float(ev.values[0]), cell, table, ev.base[0],
                        linear_fallback=bool(ev.fallback[0]), neville=ev.state)


def interpolate_1d(
    gf: GridFunction,
    x_star: float,
    params: WenoParams,
    capture: bool = False,
    smoothness_override: np.ndarray | None = None,
) -> InterpResult:
    """1-D convenience wrapper around interpolate_nd."""
    if gf.grid.ndim != 1:
        raise WenoError(f"interpolate_1d needs 1-D data, got {gf.grid.ndim}-D")
    return interpolate_nd(gf, [x_star], params, capture, smoothness_override)
