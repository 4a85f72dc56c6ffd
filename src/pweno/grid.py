"""Grid construction, dyadic refinement, cell location, and the window gather.

Nodes along each axis are finite, strictly increasing float64 arrays whose
gaps do not overflow; complex numbers and strings are refused, not cast.
Cells are the half-open intervals (x_{i-1}, x_i]; a query equal to the left
domain endpoint belongs to cell 1. All grid objects are immutable after
construction: each keeps a read-only copy of the arrays it was given, and a
TensorGrid also its axes' nodes in one array, for one window gather on all axes.

locate_cells, the one cell locator, costs one search per axis and one
validity test on the whole (npts, n) cell array, whatever the number of
points: a point below or above the domain, NaN, the first node and a cell
without a full window all fail that one test. An axis whose queries are
sorted is located by one merge of the nodes they span into the queries,
when those nodes are fewer than the queries; else each query is searched
among the nodes. The engine's large calls (_locate) search their first
axis sorted and the others in the caller's order. Only a call that fails
the test checks the same cells axis by axis, to raise the error of its
first bad axis and point.
"""
from __future__ import annotations

import math
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or configuration."""


class OutOfDomainError(GridError):
    """Query point outside the grid's domain."""


class InsufficientStencilError(GridError):
    """Not enough nodes around the located cell for the requested window."""


def _float_array(data, name: str) -> np.ndarray:
    """A grid field as a new float64 array, or GridError naming the field.

    A copy, so the caller's array stays as it was and later writes to it
    cannot reach the grid object. Complex numbers and strings are refused,
    not cast: a cast would drop imaginary parts or parse text.
    """
    try:
        data = np.array(data)   # the one copy; the cast below copies only other dtypes
        if data.dtype.kind not in "cUS":
            return data.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise GridError(f"grid field {name!r} must hold numbers in nested lists") from None
    # out here: a GridError is a ValueError, which the except would rename
    kind = "real numbers, not complex ones" if data.dtype.kind == "c" else "numbers, not strings"
    raise GridError(f"grid field {name!r} must hold {kind}")


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing node coordinates on one axis.

    Parameters
    ----------
    nodes : array_like
        Node coordinates, finite and strictly increasing, at least 2 entries,
        with every gap finite.

    Attributes
    ----------
    h_max : float
        Largest gap between adjacent nodes, cached at construction.
    """

    nodes: np.ndarray
    h_max: float = field(init=False)

    def __post_init__(self) -> None:
        nodes = _float_array(self.nodes, "nodes")
        if nodes.ndim != 1:
            raise GridError(f"nodes must be a 1-D array, got shape {nodes.shape}")
        if nodes.size < 2:
            raise GridError("grid needs at least 2 nodes on one axis")
        if not np.all(np.isfinite(nodes)):
            raise GridError("nodes must all be finite")
        with np.errstate(over="ignore"):    # an overflowing gap is refused below
            gaps = np.diff(nodes)
        if not np.all(gaps > 0.0):
            raise GridError("nodes must be strictly increasing")
        h_max = float(gaps.max())
        if not np.isfinite(h_max):
            k = int(gaps.argmax())
            raise GridError(f"the gap between nodes {nodes[k]:g} and {nodes[k + 1]:g} overflows")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h_max", h_max)

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-axis grids (n >= 1 axes). Cached at construction:
    the global mesh width h, the largest Grid1D.h_max; shape, also as the
    array _sizes; and all axes' nodes in one array _nodes, a's from _offsets[a]."""

    axes: tuple[Grid1D, ...]
    h: float = field(init=False, repr=False, compare=False)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if len(axes) < 1:
            raise GridError("tensor grid needs at least one axis")
        if not all(isinstance(ax, Grid1D) for ax in axes):
            raise GridError("every axis must be a Grid1D")
        sizes = np.array([ax.nodes.size for ax in axes], dtype=np.intp)
        nodes, offsets = np.concatenate([ax.nodes for ax in axes]), np.cumsum(sizes) - sizes
        for a in (sizes, nodes, offsets):
            a.setflags(write=False)
        cached = {"axes": axes, "h": max(ax.h_max for ax in axes), "shape": tuple(sizes.tolist()),
                  "_sizes": sizes, "_nodes": nodes, "_offsets": offsets}
        for name, value in cached.items():
            object.__setattr__(self, name, value)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def to_dict(self) -> dict:
        return {"axes": [ax.nodes.tolist() for ax in self.axes]}

    @classmethod
    def from_dict(cls, data: dict) -> "TensorGrid":
        if not isinstance(data, dict) or "axes" not in data:
            raise GridError("grid JSON must be an object with an 'axes' field")
        if not isinstance(data["axes"], list):
            raise GridError("grid JSON field 'axes' must be a list of node lists")
        return cls(tuple(Grid1D(_float_array(a, "axes")) for a in data["axes"]))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a tensor grid.

    values has shape (J_1+1, ..., J_n+1), axis 1 outermost (row-major); the
    grid function keeps its own read-only copy. It also remembers, per r,
    the indicator table of every cell it was queried at (see
    smoothness.indicator_tables), for as long as it lives: a later query in
    the same cell finds its table through a row index over the grid's
    cells, with no search and no sort, under the grid function's lock. That
    costs 8 B per grid node plus distinct cells queried x r^n x 8 B, per r.
    The linear method builds no tables. A pickled or copied grid function
    starts with an empty memo.
    """

    grid: TensorGrid
    values: np.ndarray
    # r -> (row of each flat cell or -1 (prod shape,), tables (capacity, r**n),
    # rows built); only smoothness._table_rows changes it, under the lock
    _indicator_memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _memo_lock: threading.Lock = field(init=False, repr=False, compare=False,
                                       default_factory=threading.Lock)

    def __post_init__(self) -> None:
        values = _float_array(self.values, "values")
        if values.shape != self.grid.shape:
            raise GridError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise GridError("values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # the memo is a cache and a lock does not pickle: rebuild from the fields
        return GridFunction, (self.grid, self.values)

    @classmethod
    def from_callable(cls, grid: TensorGrid, fn) -> "GridFunction":
        """Sample fn on the grid. fn takes n coordinate arrays: read-only views,
        broadcast to the grid shape."""
        mesh = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij", copy=False)
        return cls(grid, fn(*mesh))

    def to_dict(self) -> dict:
        out = self.grid.to_dict()
        out["values"] = self.values.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GridFunction":
        grid = TensorGrid.from_dict(data)
        if "values" not in data:
            raise GridError("grid-function JSON must contain 'values'")
        return cls(grid, data["values"])


@dataclass(frozen=True)
class CellIndex:
    """Per-axis index i of the central cell: query in prod (x_{i_j-1}, x_{i_j}]."""

    i: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", tuple(int(v) for v in self.i))


@lru_cache(maxsize=64)
def _block_offsets(shape: tuple, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets (width,)*n of a block's entries from its first entry, and the
    flat step (n,) of each axis, in a C-contiguous array; shared, so read-only."""
    step = np.cumprod((1,) + shape[:0:-1], dtype=np.intp)[::-1]
    off = np.tensordot(step, np.indices((width,) * len(shape)), 1)
    off.flags.writeable = step.flags.writeable = False
    return off, step


def blocks(a: np.ndarray, starts: np.ndarray, width: int, out=None) -> np.ndarray:
    """The one window gather: width entries per axis of a from each start.

    a is C-contiguous with n axes (grid values, or an axis' nodes); starts
    (..., n), each in 0 .. a.shape[j] - width on axis j, unchecked. Returns
    a C-contiguous ((width,)*n + starts.shape[:-1]) array, window axes
    first: [..., p] is a[s_1 : s_1 + width, ..., s_n : s_n + width] for
    s = starts[p], so every later step runs over rows of all starts. With
    out, a pair of flat float64 buffers of at least that many entries, it is
    a view of out[0], and out[1] holds its flat index; else it is new.
    """
    off, step = _block_offsets(a.shape, width)
    first = starts @ step
    if out is None:
        # one flat take: indexing a strided view keeps the starts-first memory order
        return a.take(np.add.outer(off, first))
    size = off.size * first.size
    index = out[1].view(np.intp)[:size].reshape(off.shape + first.shape)
    np.add.outer(off, first, out=index)
    # the index is in range by construction; mode="raise" would buffer the output
    return a.take(index, out=out[0][:size].reshape(index.shape), mode="clip")


def _check_range(a, b) -> None:
    """GridError unless a < b and b - a is finite (NaN fails a < b)."""
    if not a < b:
        raise GridError(f"invalid range: need a < b, got a={a}, b={b}")
    if not math.isfinite(float(b) - float(a)):     # Python floats overflow to inf silently
        raise GridError(f"invalid range: b - a overflows, got a={a}, b={b}")


def _check_count(value, name: str, least: int) -> None:
    """GridError unless value is an integer (a bool is not) of at least least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise GridError(f"invalid {name}: need an integer >= {least}, got {value!r}")


def build_uniform_grid(a: float, b: float, J: int) -> Grid1D:
    """Uniform partition of [a, b] into J cells (J+1 nodes)."""
    _check_range(a, b)
    _check_count(J, "cell count", 1)
    with np.errstate(over="ignore"):    # only the last node can overflow; linspace sets it to b
        nodes = np.linspace(a, b, J + 1)
    return Grid1D(nodes)


def build_random_grid(a: float, b: float, J: int, seed: int) -> Grid1D:
    """Random grid: fixed endpoints, J-1 sorted uniform interior nodes.

    Interior nodes are drawn in index order from U(a, b) with numpy's
    seeded default generator (PCG64), so the grid is reproducible per seed.
    If the sorted draws collide to full precision (Grid1D rejects them) the
    whole interior set is redrawn, up to 100 attempts.
    """
    _check_range(a, b)
    _check_count(J, "cell count", 2)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        with suppress(GridError):
            return Grid1D(np.concatenate(([a], np.sort(a + (b - a) * rng.random(J - 1)), [b])))
    raise GridError("degenerate random grid: duplicate nodes after 100 attempts")


def refine_dyadic(g: Grid1D) -> Grid1D:
    """Insert the midpoint of every cell; original nodes are kept exactly."""
    old = g.nodes
    out = np.empty(2 * old.size - 1, dtype=np.float64)
    out[0::2] = old
    out[1::2] = 0.5 * old[:-1] + 0.5 * old[1:]     # halves first: the sum may overflow
    return Grid1D(out)


def build_perturbed_grid(level: int, seed: int) -> Grid1D:
    """Perturbed uniform grid on [-1, 1]: nodes -1 + i*h + eps_i, h = 2^(1-level).

    eps_i ~ U[-h/2, h/2) drawn in index order for interior nodes; eps_0 =
    eps_J = 0. One draw suffices: base and eps are exact in binary, so every
    gap before rounding is at least h * 2^-53, and rounding keeps the order.
    Two nodes meet only if one float holds both (odds about 2^(3*level-109)),
    and then Grid1D raises GridError.
    """
    _check_count(level, "level", 1)
    J = 2 ** level
    h = 2.0 ** (1 - level)
    base = -1.0 + h * np.arange(J + 1)
    eps = np.zeros(J + 1)
    eps[1:J] = np.random.default_rng(seed).uniform(-h / 2, h / 2, J - 1)
    return Grid1D(base + eps)


def _check_window(grid: TensorGrid, axis: int, i: np.ndarray, r: int) -> None:
    """InsufficientStencilError unless every cell i on the given axis has a
    full 2r-node window, r <= i <= J - r + 1; it names the first short one."""
    ax = grid.axes[axis]
    short = (i < r) | (i > ax.n_cells + 1 - r)
    if short.any():
        raise InsufficientStencilError(
            f"cell {i[short][0]} lacks a full {2 * r}-node window on axis {axis} "
            f"(axis has {ax.n_cells} cells)"
        )


def _sorted_search(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """keys.searchsorted(x) for sorted keys, by one merge where x is sorted.

    Only the m keys between x's first and last entry can split x; when x is
    sorted and m < len(x), searching those m keys into x (about
    m log(len(x)/m) comparisons) and expanding the counts costs less than
    one search per entry of x. NaN fails the sortedness test, so it is
    searched. locate_cells uses it for each axis' nodes.
    """
    if x.size > 1 and (x[1:] >= x[:-1]).all():
        lo, hi = keys.searchsorted(x[[0, -1]])
        if hi - lo < x.size:
            ends = x.searchsorted(keys[lo:hi], side="right")
            return np.repeat(np.arange(lo, hi + 1), np.diff(ends, prepend=0, append=x.size))
    return keys.searchsorted(x)


def locate_cells(grid: TensorGrid, pts: np.ndarray, r: int | None = None) -> np.ndarray:
    """Central cells of many queries: pts has shape (npts, n), result (npts, n).

    Cell i of an axis holds the queries x in (x_{i-1}, x_i]; a query on the
    first node belongs to cell 1. With r given, raises
    InsufficientStencilError unless r <= i_j and i_j + r - 1 <= J_j on every
    axis. One search per axis (_sorted_search: a merge where the axis'
    queries are sorted) gives i_j = 0 below the domain and on its first node,
    J_j + 1 above it and for NaN, so one test of
    r <= i_j <= J_j - r + 1 (1 <= i_j <= J_j without r) passes every valid
    query of a call. Only when it fails are the same cells checked axis by
    axis, and the first axis with a bad query raises: OutOfDomainError if a
    query lies outside the domain, else InsufficientStencilError naming its
    first short cell. A query on the first node is valid only without r or
    at r = 1. Every axis is searched in the order of pts.
    """
    return _locate(grid, pts, r)


def _locate(grid: TensorGrid, pts: np.ndarray, r: int | None = None,
            order: np.ndarray | None = None, spts: np.ndarray | None = None) -> np.ndarray:
    """locate_cells(grid, pts, r), or given order, an argsort of pts[:, 0],
    and spts = pts.take(order, axis=0), locate_cells(grid, spts, r): axis 0
    is then searched in spts, by a merge, every other axis in pts, the
    caller's order, before a take, and a bad query raises as in
    locate_cells(grid, pts, r), for the caller's first bad point."""
    lo = 1 if r is None else r
    cells = np.empty(pts.shape, dtype=np.intp)
    for axis, ax in enumerate(grid.axes):
        if order is not None and axis == 0:     # sorted, so a merge
            cells[:, 0] = _sorted_search(ax.nodes, spts[:, 0])
        else:
            i = _sorted_search(ax.nodes, pts[:, axis])
            cells[:, axis] = i if order is None else i.take(order)
    if ((cells >= lo) & (cells <= grid._sizes - lo)).all():
        return cells
    if order is not None:
        return _locate(grid, pts, r).take(order, axis=0)
    for axis, ax in enumerate(grid.axes):
        i = cells[:, axis]
        if ((i > ax.n_cells) | ((i == 0) & (pts[:, axis] != ax.nodes[0]))).any():
            raise OutOfDomainError("query outside grid domain (or not a number)")
        i[i == 0] = 1
        _check_window(grid, axis, i, lo)
    return cells
