"""The WENO-2r interpolation engine: classical, progressive and linear.

One engine serves every dimension n and every entry point. _chunk runs the
method on a chunk of c points, given only that chunk's points, cells and
tables, and resolves eps and t itself: it gathers each point's
2r-per-axis window (grid.blocks) into an array of shape (2r, ..., 2r, c)
and collapses it one axis at a time. Every per-point array keeps the point
axis last and contiguous, so each step below runs over rows of the chunk's
points, not over one point's 2r entries. Neville's recurrence, whose steps
are the affine pair weights, reduces each axis from 2r samples to the r
base sub-stencil values. The linear method continues those steps to the
full 2r-point interpolant. The classical method forms one convex
combination of the r^n base values, with the optimal weights as outer
products of per-axis weights: steps r..2r-2 run on the identity
(_optimal_weights). The progressive method runs the Aitken-Neville
recursion from level r: each node combines its 2^n children with
indicator-modulated tensor pair weights until one level-(2r-1) value
remains. Indicators are computed once per cell, at level r, and _chunk
raises each point's denominators (eps + I)^t once; every level reads them
by index shifts.

evaluate, behind batch.interpolate_batch, sorts a call of more than one
chunk by the points' first coordinate before locating them (sorted queries
locate by a merge), builds all their cells' indicator tables in one
indicator_tables call, and runs the sorted points in contiguous chunks of
at most smoothness._CHUNK_BYTES of value windows (at least _MIN_CHUNK
points), so memory does not grow with npts. Answers go back in the caller's
order; a one-chunk call is neither sorted nor scattered. interpolate_nd runs
one chunk of one point, with capture=True also returning its recursion
triangle as arrays (NevilleState). Both read points through _as_points.

The work around the arithmetic is a fixed, small number of array passes per
call, which is most of a one-point call's cost: grid.locate_cells searches
once per axis, by one merge where the axis' points are sorted, and tests
validity once; indicator_tables, under the grid function's lock, gathers
the points' row numbers from its memo's row index, sorts only the cells it
has yet to build, and takes the rows in one take; and nonlinear_pair, the
one normalization, applies the linear-weight fallback only when some
candidate sum is not finite and positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from numbers import Real

import numpy as np

from . import smoothness
from .grid import CellIndex, GridFunction, InsufficientStencilError, blocks, locate_cells
from .smoothness import indicator_tables
from .weights import pair_keep

METHODS = ("progressive", "classical", "linear")
# Fewest points in a chunk: below about this many, the fixed Python cost per
# chunk of the progressive levels outweighs the cache a smaller chunk saves.
_MIN_CHUNK = 1024


class WenoError(ValueError):
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
    """The progressive recursion triangle of one point, as arrays.

    values[l], l = r..2r-1, has shape (2r-l,)*n: values[l][j] is p~^l_j(x*),
    so values[r] holds the base values and values[2r-1][(0,)*n] the answer.
    weights[l], l = r..2r-2, has shape (2r-1-l,)*n + (2,)*n: weights[l][j + v]
    is the nonlinear weight of child j+v (v in {0,1}^n) in the level-(l+1)
    node j.
    """

    r: int
    ndim: int
    values: dict[int, np.ndarray] = field(default_factory=dict)
    weights: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class InterpResult:
    """One point's answer. indicators holds its base sub-stencil indicators,
    shape (r,)*n; it is None for the linear method, which builds none.
    neville is the recursion triangle (NevilleState); it is None unless
    capture=True was asked of the progressive method."""

    value: float
    cell: CellIndex
    indicators: np.ndarray | None
    linear_fallback: bool = False
    neville: NevilleState | None = None


# np.errstate as a decorator costs about half a with block per call; it keeps
# its saved state per call (numpy 2; the floor in pyproject.toml), so threads
# may share the decorated functions
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def nonlinear_pair(linear_weights, denominators):
    """Indicator-modulated normalization of sets of linear weights.

    The candidates run along the first axis; trailing axes are independent
    sets. denominators holds each candidate's (eps + I_v)^t, raised once per
    point by _chunk: alpha_v = C_v / (eps + I_v)^t, omega_v = alpha_v /
    sum(alpha). Where the sum underflows to zero or is not finite, the
    linear weights are returned instead and the second return value is
    true; the fallback costs its two passes only in calls where some sum
    needs it. Sums over candidates, here and in evaluate, add rows left to
    right (reduce): the order of numpy's own sum depends on the trailing
    shape, so a point's bits would depend on the size of its batch.
    """
    C = np.asarray(linear_weights, dtype=np.float64)
    # inf, NaN (0/0) or 0 sums trigger the fallback
    alpha = C / np.asarray(denominators, dtype=np.float64)
    s = reduce(np.add, alpha)
    bad = ~np.isfinite(s) | (s <= 0.0)
    if bad.any():
        return np.where(bad, C, alpha / np.where(bad, 1.0, s)), bad
    return alpha / s, bad


@np.errstate(over="ignore")     # an inf denominator triggers the fallback
def _denominators(indicators: np.ndarray, eps: float, t: float) -> np.ndarray:
    """(eps + I)^t of indicators (r^n, c), once per point, as a new
    C-contiguous array."""
    den = np.add(eps, indicators, order="C")
    den **= t
    return den


def _neville(T: np.ndarray, windows, x, levels) -> np.ndarray:
    """Linear Neville steps at the given levels along the leading axes of T
    (..., npts), one per window (2r, npts).

    The step at level l merges neighbours a = T[j] and b = T[j+1] with the
    pair weights c_keep and 1 - c_keep of each point's window as
    b + c_keep (a - b): one temporary, and no cancellation where the step
    extrapolates (|c_keep| >> 1), as c_keep a + (1 - c_keep) b has. Steps
    0..r-1 turn 2r samples into the r base values, steps r..2r-2 continue
    to the full interpolant.
    """
    for axis, (w, xa) in enumerate(zip(windows, x)):
        # the window broadcast over T's later axes, so its pair weights are too
        w = w.reshape(w.shape[:1] + (1,) * (T.ndim - axis - 2) + w.shape[1:])
        lead = (slice(None),) * axis
        hi, lo = lead + (slice(1, None),), lead + (slice(None, -1),)
        for l in levels:
            b = T[hi]
            T = T[lo] - b
            T *= pair_keep(w, xa, l)
            T += b
    return T


def _optimal_weights(windows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Classical optimal weights (r, npts) on one axis, windows (2r, npts), x
    (npts,): steps r..2r-2 are linear in the base values, so run on the
    identity they give each base value's weight in the full interpolant."""
    r, npts = windows.shape[0] // 2, windows.shape[1]
    eye = np.broadcast_to(np.eye(r)[..., None], (r, r, npts))
    return _neville(eye, [windows], [x], range(r, 2 * r - 1))[0]


def _outer(factors) -> np.ndarray:
    """Per-point outer product of per-axis arrays (m_a, npts)."""
    out = factors[0]
    for f in factors[1:]:
        out = out[..., None, :] * f
    return out


def _as_points(points, ndim: int) -> np.ndarray:
    """Query points as a float64 array (npts, ndim), or WenoError.

    A 1-D array is read as npts points of a 1-D grid function, and an empty
    one as no points of any dimension. Complex numbers are refused, not
    cast: a cast would drop their imaginary parts.
    """
    try:
        pts = np.asarray(points)
        if pts.dtype.kind != "c":
            pts = pts.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise WenoError("points must be numbers in an array or nested lists") from None
    if pts.dtype.kind == "c":   # out here: a WenoError is a ValueError, which the except renames
        raise WenoError("points must be real numbers, not complex ones")
    if pts.ndim == 1 and (ndim == 1 or pts.size == 0):
        pts = pts.reshape(-1, ndim)
    if pts.ndim != 2 or pts.shape[1] != ndim:
        raise WenoError(f"points must have shape (npts, {ndim}), got {pts.shape}")
    return pts


def _chunk(gf: GridFunction, x: np.ndarray, cells: np.ndarray, tables, params: WenoParams,
           capture: bool = False):
    """The method at c points x (n, c) in cells (c, n) with their tables
    ((c,) + (r,)*n, None for the linear method): their c values (in some
    shape), fallback flags and, with capture, the first point's triangle."""
    r, n, npts = params.r, gf.grid.ndim, x.shape[1]
    windows = [blocks(ax.nodes, cells[:, a, None] - r, 2 * r)
               for a, ax in enumerate(gf.grid.axes)]
    base = _neville(blocks(gf.values, cells - r, 2 * r), windows, x, range(r))
    fallback = np.zeros(npts, dtype=bool)
    if tables is None:
        return _neville(base, windows, x, range(r, 2 * r - 1)), fallback, None
    eps, t = params.resolve_eps(gf.grid), params.resolve_t()
    # every node below reads these by index shifts
    den = _denominators(tables.reshape(npts, -1).T, eps, t).reshape(base.shape)
    if params.method == "classical":
        C = _outer([_optimal_weights(windows[a], x[a]) for a in range(n)]).reshape(r ** n, npts)
        omega, fallback = nonlinear_pair(C, den.reshape(r ** n, npts))
        return reduce(np.add, omega * base.reshape(r ** n, npts)), fallback, None
    state = NevilleState(r=r, ndim=n, values={r: base[..., 0]}) if capture else None
    top = base
    for l in range(r, 2 * r - 1):
        shift = l - (r - 1)
        size = 2 * r - 1 - l
        # per axis, the pair weights (c_keep, 1 - c_keep) of every node: (2, size, npts)
        pairs = [np.concatenate([k, 1.0 - k]).reshape(2, size, npts)
                 for k in (pair_keep(windows[a], x[a], l) for a in range(n))]
        nxt = np.empty((size,) * n + (npts,))
        if state is not None:
            state.weights[l] = np.empty((size,) * n + (2,) * n)
        # kept: one array pass per level gave the same bits, slower (CHANGES.md)
        for j in product(range(size), repeat=n):
            C = _outer([p[:, ja] for p, ja in zip(pairs, j)])
            # child j+v reuses the level-r denominator (eps + I^r_{j + shift*v})^t
            Dj = den[tuple(slice(ja, ja + shift + 1, shift) for ja in j)]
            omega, bad = nonlinear_pair(C.reshape(2 ** n, npts), Dj.reshape(2 ** n, npts))
            fallback |= bad
            kids = top[tuple(slice(ja, ja + 2) for ja in j)]
            nxt[j] = reduce(np.add, omega * kids.reshape(2 ** n, npts))
            if state is not None:
                state.weights[l][j] = omega[:, 0].reshape((2,) * n)   # lexicographic v
        top = nxt
        if state is not None:
            state.values[l + 1] = top[..., 0]
    return top, fallback, state


def evaluate(gf: GridFunction, pts: np.ndarray, params: WenoParams):
    """The configured method at query points pts of shape (npts, n): their
    values, cells (npts, n) and fallback flags, in the caller's order, from
    chunks sorted by the first coordinate (see the module docstring).
    """
    r, n, npts = params.r, gf.grid.ndim, pts.shape[0]
    chunk = max(smoothness._CHUNK_BYTES // (8 * (2 * r) ** n), _MIN_CHUNK)
    # kept: chunks in caller order, or a sort of every call, ran slower (CHANGES.md)
    order = np.argsort(pts[:, 0]) if npts > chunk else None
    spts = pts if order is None else pts[order]
    try:
        cells = locate_cells(gf.grid, spts, r)
    except InsufficientStencilError:
        locate_cells(gf.grid, pts, r)   # raises it again, for the caller's first such point
        raise
    tables = None if params.method == "linear" else indicator_tables(gf, cells, r)
    values, fallback, located = np.empty(npts), np.empty(npts, dtype=bool), np.empty_like(cells)
    for lo in range(0, npts, chunk):
        rows = slice(lo, min(lo + chunk, npts))
        top, bad, _ = _chunk(gf, spts[rows].T, cells[rows],
                             None if tables is None else tables[rows], params)
        dest = rows if order is None else order[rows]
        values[dest], fallback[dest], located[dest] = top.reshape(-1), bad, cells[rows]
    return values, located, fallback


def interpolate_nd(gf: GridFunction, x_star, params: WenoParams,
                   capture: bool = False) -> InterpResult:
    """Interpolate gf at one point x_star (n coordinates; a number when n = 1)
    with the configured method. capture records the recursion triangle of the
    progressive method in InterpResult.neville.
    """
    pts = _as_points([x_star], gf.grid.ndim)
    cells = locate_cells(gf.grid, pts, params.r)
    tables = None if params.method == "linear" else indicator_tables(gf, cells, params.r)
    top, bad, state = _chunk(gf, pts.T, cells, tables, params, capture)
    return InterpResult(float(top.reshape(-1)[0]), CellIndex(tuple(cells[0].tolist())),
                        None if tables is None else tables[0],
                        linear_fallback=bool(bad[0]), neville=state)
