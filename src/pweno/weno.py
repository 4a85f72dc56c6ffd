"""The WENO-2r interpolation engine: classical, progressive and linear.

One engine serves every dimension n and every entry point. _chunk runs the
method on a chunk of c points, given only that chunk's points, cells and
tables, and resolves eps and t itself. It gathers each point's (2r)^n value
block, shape (2r, ..., 2r, c), and its node windows on all axes in one take
of the grid's concatenated nodes, shape (2r, n, c) (both grid.blocks), and
collapses the block one axis at a time, the point axis last and contiguous,
so each step runs over rows of the chunk's points. Neville's recurrence,
whose steps are the affine pair weights, reduces each axis from 2r samples
to the r base sub-stencil values. The linear method continues those steps
to the full 2r-point interpolant. The classical method forms one convex
combination of the r^n base values, with the optimal weights as outer
products of per-axis weights: steps r..2r-2 run on the identity
(_optimal_weights). The progressive method runs the Aitken-Neville
recursion from level r: each node combines its 2^n children with
indicator-modulated tensor pair weights until one level-(2r-1) value
remains. Indicators are computed once per cell, at level r, and _chunk
raises each point's denominators (eps + I)^t once; every level reads them
by index shifts.

evaluate is the one way in, for many points (batch.interpolate_batch) or one
(interpolate_nd, whose capture=True also returns the recursion triangle,
NevilleState), read through _as_points. A call of more than one chunk is
sorted by the first coordinate, run in contiguous chunks of at most
_CHUNK_BYTES of value windows (at least _MIN_CHUNK points), so memory does not
grow with npts, and scattered back to the caller's order; a one-chunk call
hands out its chunk's own arrays. A chunk of 2^14 or more value-block entries
works in four buffers its thread keeps across calls (_arena), none handed out,
so a warm chunk maps and faults no new memory.

The work around the arithmetic is a fixed, small number of array passes per
call, which is most of a one-point call's cost: grid._locate searches once per
axis, by a merge on the sorted first axis, and tests validity once; one
_table_rows call, under the grid function's lock, gathers all the points' row
numbers from its memo's row index and sorts only the cells it has yet to
build; a chunk takes its rows in one take, into its buffers when it has them;
each Neville level forms all axes' pair weights in one division, 2r - 1 per
chunk for any n; and nonlinear_pair, the one normalization, applies the
linear-weight fallback only when some candidate sum is not finite and positive.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from numbers import Real

import numpy as np

from . import smoothness
from .grid import CellIndex, GridFunction, _locate, blocks
from .smoothness import _table_rows
from .weights import _pair_keep

METHODS = ("progressive", "classical", "linear")
# Fewest points in a chunk: below about this many, the fixed Python cost per
# chunk of the progressive levels outweighs the cache a smaller chunk saves.
_MIN_CHUNK = 1024
_local = threading.local()     # this thread's workspace, for _arena only


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
    true. Two reductions test all sums, so the fallback mask and its passes
    cost only calls where some sum needs them. Sums over candidates, here
    and in _chunk, add rows left to right (reduce): the order of numpy's
    own sum depends on the trailing shape, so a point's bits would depend on
    the size of its batch.
    """
    C = np.asarray(linear_weights, dtype=np.float64)
    # inf, NaN (0/0) or 0 sums trigger the fallback
    alpha = C / np.asarray(denominators, dtype=np.float64)
    s = reduce(np.add, alpha)
    if s.size and 0.0 < s.min() <= s.max() < np.inf:    # NaN fails both comparisons
        return alpha / s, np.zeros(s.shape, dtype=bool)
    bad = ~np.isfinite(s) | (s <= 0.0)
    return np.where(bad, C, alpha / np.where(bad, 1.0, s)), bad


@np.errstate(over="ignore")     # an inf denominator triggers the fallback
def _denominators(tables: np.ndarray, at: np.ndarray, eps: float, t: float, out=None):
    """(eps + I)^t (r^n, c) of the c table rows at of tables, once per point:
    with out (flat), the rows go to its front and the result after them."""
    size = tables.shape[1] * at.size
    rows = tables.take(at, axis=0, mode="clip",     # at is in range; "raise" buffers out
                       out=None if out is None else out[:size].reshape(at.size, -1))
    den = np.add(eps, rows.T, order="C",
                 out=None if out is None else out[size:2 * size].reshape(rows.T.shape))
    den **= t
    return den


def _arena(r: int, n: int, npts: int):
    """The thread's four flat float64 buffers, kept across calls, for a chunk of npts points:
    value block and steps (twice), node windows, table rows and denominators. None below 2^14
    value-block entries, where fresh arrays cost less, or past smoothness._CHUNK_BYTES of them."""
    block = (2 * r) ** n * npts
    if not 1 << 14 <= block <= smoothness._CHUNK_BYTES // 8:
        return None
    sizes = (block, block, 2 * r * n * npts, 2 * r ** n * npts)
    bufs = getattr(_local, "bufs", (np.empty(0),) * 4)
    if any(b.size < s for b, s in zip(bufs, sizes)):
        _local.bufs = bufs = tuple(b if b.size >= s else np.empty(s) for b, s in zip(bufs, sizes))
    return bufs


@lru_cache(maxsize=None)
def _steps(ndim: int, m: int) -> tuple:
    """Per axis a < m of T (ndim axes): a, a's window key, and T's neighbour slices hi, lo."""
    return tuple((a, (slice(None), a) + (None,) * (ndim - a - 2),
                  (slice(None),) * a + (slice(1, None),), (slice(None),) * a + (slice(None, -1),))
                 for a in range(m))


def _neville(T: np.ndarray, windows, x, levels, arena=None) -> np.ndarray:
    """Linear Neville steps at the given levels along the m leading axes of T
    (..., npts), with windows (2r, m, npts) at points x (m, npts).

    The step at level l merges neighbours a = T[j] and b = T[j+1] with the
    pair weights c_keep and 1 - c_keep of each point's window as
    b + c_keep (a - b): one temporary, and no cancellation where the step
    extrapolates (|c_keep| >> 1), as c_keep a + (1 - c_keep) b has. Steps
    0..r-1 turn 2r samples into the r base values, steps r..2r-2 continue
    to the full interpolant. Every axis' numerators are formed once, and
    level l's pair weights (2r-1-l, m, npts) in one division the first time
    an axis reaches l, kept until the last axis has stepped through them (in
    1-D, nothing outlives its step). With arena (_arena's) T is in arena[0],
    and the steps write into arena[1] and arena[0] in turn; else each is new.
    """
    num, kept, last = x - windows[1:], {}, windows.shape[1] - 1     # every axis' numerators
    for a, key, hi, lo in _steps(T.ndim, last + 1):
        for l in levels:
            if l not in kept:
                kept[l] = _pair_keep(windows, num, l)
            b = T[hi]
            if arena is None:
                T = T[lo] - b
            else:
                arena = arena[1::-1]
                T = np.subtract(T[lo], b, out=arena[0][:b.size].reshape(b.shape))
            T *= (kept.pop(l) if a == last else kept[l])[key]
            T += b
    return T


def _optimal_weights(windows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Classical optimal weights (r, npts) on one axis, windows (2r, npts), x
    (npts,): steps r..2r-2 are linear in the base values, so run on the
    identity they give each base value's weight in the full interpolant. The
    axes of a chunk's windows (2r, n, c) go in one call as npts = n c."""
    r, npts = windows.shape[0] // 2, windows.shape[1]
    eye = np.broadcast_to(np.eye(r)[..., None], (r, r, npts))
    return _neville(eye, windows[:, None], x[None], range(r, 2 * r - 1))[0]


def _outer(factors) -> np.ndarray:
    """Per-point outer product of per-axis arrays (m_a, npts)."""
    out = factors[0]
    for f in factors[1:]:
        out = out[..., None, :] * f
    return out


def _as_points(points, ndim: int) -> np.ndarray:
    """Query points as a float64 array (npts, ndim), or WenoError.

    A 1-D array is read as npts points of a 1-D grid function, and an empty
    one as no points of any dimension. Complex numbers and strings are
    refused, not cast: a cast would drop imaginary parts or parse text.
    """
    try:
        pts = np.asarray(points)
        if pts.dtype.kind not in "cUS":
            pts = pts.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise WenoError("points must be numbers in an array or nested lists") from None
    if pts.dtype.kind in "cUS":     # out here: a WenoError is a ValueError the except renames
        raise WenoError("points must be real numbers, not complex ones" if pts.dtype.kind == "c"
                        else "points must be numbers, not strings")
    if pts.ndim == 1 and (ndim == 1 or pts.size == 0):
        pts = pts.reshape(-1, ndim)
    if pts.ndim != 2 or pts.shape[1] != ndim:
        raise WenoError(f"points must have shape (npts, {ndim}), got {pts.shape}")
    return pts


@lru_cache(maxsize=None)
def _level_nodes(n: int, r: int, l: int) -> tuple:
    """Node j of level l + 1: j, its pair-weight picks, its children's den and level-l slices."""
    return tuple((j, tuple((slice(None), ja, a) for a, ja in enumerate(j)),
                  tuple(slice(ja, ja + l - r + 2, l - r + 1) for ja in j),
                  tuple(slice(ja, ja + 2) for ja in j))
                 for j in product(range(2 * r - 1 - l), repeat=n))


def _chunk(gf: GridFunction, x: np.ndarray, cells: np.ndarray, tables, params: WenoParams,
           capture: bool = False):
    """The method at c points x (n, c) in cells (c, n) with their table rows
    (tables, at of length c; None for the linear method), in _arena's buffers
    ws if any, of which blocks and _neville use the first two: their c values
    (in some shape), fallback flags and, with capture, the first point's triangle.
    Each level divides once for all axes, the classical ones in one _optimal_weights call."""
    r, n, npts, grid = params.r, gf.grid.ndim, x.shape[1], gf.grid
    ws = _arena(r, n, npts)
    starts = (cells + (grid._offsets - r)).T[..., None]
    windows = blocks(grid._nodes, starts, 2 * r, ws and (ws[2], ws[1]))
    top = _neville(blocks(gf.values, cells - r, 2 * r, ws), windows, x, range(r), ws)
    fallback = np.zeros(npts, dtype=bool)
    if tables is None:
        return _neville(top, windows, x, range(r, 2 * r - 1)), fallback, None
    # every node below reads these by index shifts
    den = _denominators(*tables, params.resolve_eps(grid), params.resolve_t(), ws and ws[3])
    den = den.reshape(top.shape)
    if params.method == "classical":
        W = _optimal_weights(windows.reshape(2 * r, -1), x.reshape(-1)).reshape(r, n, npts)
        C = _outer([W[:, a] for a in range(n)]).reshape(r ** n, npts)
        omega, fallback = nonlinear_pair(C, den.reshape(r ** n, npts))
        return reduce(np.add, omega * top.reshape(r ** n, npts)), fallback, None
    state = NevilleState(r=r, ndim=n, values={r: top[..., 0].copy()}) if capture else None
    for l in range(r, 2 * r - 1):
        # the pair weights (c_keep, 1 - c_keep) of every node on every axis: (2, size, n, c)
        keep = _pair_keep(windows, x - windows[l + 1:], l)
        pairs = np.concatenate([keep, 1.0 - keep]).reshape((2,) + keep.shape)
        nxt = np.empty(keep.shape[:1] * n + (npts,))
        if state is not None:
            state.weights[l] = np.empty(keep.shape[:1] * n + (2,) * n)
        # kept: one array pass per level gave the same bits, slower (CHANGES.md)
        for j, picks, Dj, kids in _level_nodes(n, r, l):
            C = _outer([pairs[p] for p in picks])
            # child j+v reuses the level-r denominator (eps + I^r_{j + (l-r+1)v})^t
            omega, bad = nonlinear_pair(C.reshape(2 ** n, npts), den[Dj].reshape(2 ** n, npts))
            fallback |= bad
            nxt[j] = reduce(np.add, omega * top[kids].reshape(2 ** n, npts))
            if state is not None:
                state.weights[l][j] = omega[:, 0].reshape((2,) * n)   # lexicographic v
        top = nxt
        if state is not None:
            state.values[l + 1] = top[..., 0]
    return top, fallback, state


def evaluate(gf: GridFunction, pts: np.ndarray, params: WenoParams, capture: bool = False):
    """The configured method at points pts (npts, n): values, cells (npts, n) and fallback
    flags in the caller's order, the memo rows (tables, at; at in chunk order, None for the
    linear method) and, with capture, a one-chunk call's first triangle, else None. A bad
    point raises as locate_cells does, for the caller's first one."""
    r, n, npts = params.r, gf.grid.ndim, pts.shape[0]
    chunk = max(smoothness._CHUNK_BYTES // (8 * (2 * r) ** n), _MIN_CHUNK)
    # kept: chunks in caller order, or a sort of every call, ran slower (CHANGES.md)
    order = np.argsort(pts[:, 0]) if npts > chunk else None
    spts = pts if order is None else pts.take(order, axis=0)
    cells = _locate(gf.grid, pts, r, order, spts)
    tables = None if params.method == "linear" else _table_rows(gf, cells, r)
    if order is None:
        top, bad, state = _chunk(gf, pts.T, cells, tables, params, capture)
        return top.reshape(-1), cells, bad, tables, state
    values, fallback, located = np.empty(npts), np.empty(npts, dtype=bool), np.empty_like(cells)
    for lo in range(0, npts, chunk):
        rows = slice(lo, lo + chunk)
        top, bad, _ = _chunk(gf, spts[rows].T, cells[rows],
                             None if tables is None else (tables[0], tables[1][rows]), params)
        dest = order[rows]
        values[dest], fallback[dest], located[dest] = top.reshape(-1), bad, cells[rows]
    return values, located, fallback, tables, None


def interpolate_nd(gf: GridFunction, x_star, params: WenoParams,
                   capture: bool = False) -> InterpResult:
    """Interpolate gf at one point x_star (n coordinates; a number when n = 1)
    with the configured method: evaluate on one point. capture records the
    recursion triangle of the progressive method in InterpResult.neville.
    """
    values, cells, bad, tables, state = evaluate(gf, _as_points([x_star], gf.grid.ndim),
                                                 params, capture)
    return InterpResult(float(values[0]), CellIndex(tuple(cells[0].tolist())),
                        None if tables is None else    # a copy: later calls read the memo row
                        tables[0].take(tables[1], axis=0).reshape((params.r,) * gf.grid.ndim),
                        linear_fallback=bool(bad[0]), neville=state)
