"""Grid construction, dyadic refinement, and cell location.

Nodes along each axis are strictly increasing float64 arrays. Cells are the
half-open intervals (x_{i-1}, x_i]; a query equal to the left domain endpoint
belongs to cell 1. All grid objects are immutable after construction: each
keeps a read-only copy of the arrays it was given.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    cannot reach the grid object.
    """
    try:
        return np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise GridError(f"grid field {name!r} must hold numbers in nested lists") from None


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing node coordinates on one axis.

    Parameters
    ----------
    nodes : array_like
        Node coordinates, strictly increasing, at least 2 entries.

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
        gaps = np.diff(nodes)
        if not np.all(gaps > 0.0):
            raise GridError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h_max", float(gaps.max()))

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-axis grids (n >= 1 axes)."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if len(axes) < 1:
            raise GridError("tensor grid needs at least one axis")
        if not all(isinstance(ax, Grid1D) for ax in axes):
            raise GridError("every axis must be a Grid1D")
        object.__setattr__(self, "axes", axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def h(self) -> float:
        """Global mesh width: max over axes of the per-axis max gap."""
        return max(ax.h_max for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.nodes.size for ax in self.axes)

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
    the same cell reuses the table. That costs distinct cells queried x
    r^n x 8 B per r. The linear method builds no tables.
    """

    grid: TensorGrid
    values: np.ndarray
    # r -> runs of (sorted flat cell indices (K,), their tables (K, r**n)),
    # read-only; owned by smoothness.indicator_tables
    _indicator_memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    @classmethod
    def from_callable(cls, grid: TensorGrid, fn) -> "GridFunction":
        """Sample fn on the grid. fn takes n coordinate arrays (broadcast)."""
        mesh = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
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


def value_blocks(gf: GridFunction, starts: np.ndarray, width: int) -> np.ndarray:
    """Blocks of width samples per axis: starts (m, n) -> shape (m,) + (width,)*n.

    Row p is values[s_1 : s_1 + width, ..., s_n : s_n + width] for s = starts[p].
    """
    n = starts.shape[1]
    offsets = np.arange(width)
    index = tuple(
        (starts[:, a, None] + offsets).reshape((-1,) + (1,) * a + (width,) + (1,) * (n - 1 - a))
        for a in range(n)
    )
    return gf.values[index]


def build_uniform_grid(a: float, b: float, J: int) -> Grid1D:
    """Uniform partition of [a, b] into J cells (J+1 nodes)."""
    if a >= b:
        raise GridError(f"invalid range: need a < b, got a={a}, b={b}")
    if J < 1:
        raise GridError(f"invalid cell count: need J >= 1, got {J}")
    return Grid1D(np.linspace(a, b, J + 1))


def build_random_grid(a: float, b: float, J: int, seed: int) -> Grid1D:
    """Random grid: fixed endpoints, J-1 sorted uniform interior nodes.

    Interior nodes are drawn in index order from U(a, b) with numpy's
    seeded default generator (PCG64), so the grid is reproducible per seed.
    If the sorted draws collide to full precision the whole interior set is
    redrawn, up to 100 attempts.
    """
    if a >= b:
        raise GridError(f"invalid range: need a < b, got a={a}, b={b}")
    if J < 2:
        raise GridError(f"invalid cell count: need J >= 2, got {J}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        interior = np.sort(a + (b - a) * rng.random(J - 1))
        nodes = np.concatenate(([a], interior, [b]))
        if np.all(np.diff(nodes) > 0.0):
            return Grid1D(nodes)
    raise GridError("degenerate random grid: duplicate nodes after 100 attempts")


def refine_dyadic(g: Grid1D) -> Grid1D:
    """Insert the midpoint of every cell; original nodes are kept exactly."""
    old = g.nodes
    out = np.empty(2 * old.size - 1, dtype=np.float64)
    out[0::2] = old
    out[1::2] = 0.5 * (old[:-1] + old[1:])
    return Grid1D(out)


def build_perturbed_grid(level: int, seed: int) -> Grid1D:
    """Perturbed uniform grid on [-1, 1]: nodes -1 + i*h + eps_i, h = 2^(1-level).

    eps_i ~ U[-h/2, h/2] drawn in index order for interior nodes; endpoints are
    clamped to -1 and 1. If a draw breaks monotonicity, only the offending
    offsets are redrawn, at most 100 attempts.
    """
    if level < 1:
        raise GridError(f"invalid level: need level >= 1, got {level}")
    J = 2 ** level
    h = 2.0 ** (1 - level)
    base = -1.0 + h * np.arange(J + 1)
    rng = np.random.default_rng(seed)
    eps = np.zeros(J + 1)
    eps[1:J] = rng.uniform(-h / 2, h / 2, J - 1)
    for _ in range(100):
        nodes = base + eps
        gaps = np.diff(nodes)
        bad = np.flatnonzero(gaps <= 0.0)
        if bad.size == 0:
            nodes[0] = -1.0
            nodes[-1] = 1.0
            return Grid1D(nodes)
        redraw = np.unique(np.clip(np.concatenate((bad, bad + 1)), 1, J - 1))
        eps[redraw] = rng.uniform(-h / 2, h / 2, redraw.size)
    raise GridError("perturbed grid construction failed: monotonicity after 100 attempts")


def locate_cells_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized cell location along one axis (half-open convention).

    Returns, per query, the unique i with x in (nodes[i-1], nodes[i]];
    x equal to nodes[0] maps to cell 1. NaN lies in no cell.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= nodes[0]) & (x <= nodes[-1])):
        raise OutOfDomainError("query outside grid domain (or not a number)")
    i = np.searchsorted(nodes, x, side="left")
    return np.where(i == 0, 1, i)


def locate_cells(grid: TensorGrid, pts: np.ndarray, r: int | None = None) -> np.ndarray:
    """Central cells of many queries: pts has shape (npts, n), result (npts, n).

    With r given, raises InsufficientStencilError unless r <= i_j and
    i_j + r - 1 <= J_j on every axis.
    """
    cells = np.empty(pts.shape, dtype=np.intp)
    for axis, ax in enumerate(grid.axes):
        i = locate_cells_1d(ax.nodes, pts[:, axis])
        if r is not None:
            short = (i - r < 0) | (i + r - 1 > ax.n_cells)
            if short.any():
                raise InsufficientStencilError(
                    f"cell {i[short][0]} lacks a full {2 * r}-node window on axis {axis} "
                    f"(axis has {ax.n_cells} cells)"
                )
        cells[:, axis] = i
    return cells

