"""Sub-stencils and the derivative matrices of their Lagrange bases.

A window holds the 2r nodes per axis centered on the query cell. A sub-stencil
of width m+1 starts at offset k inside the window (nodes w[k] .. w[k+m]).
Derivative matrices come from the Newton form of the Lagrange basis,
differentiated coefficient-wise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, InsufficientStencilError


class StencilError(ValueError):
    pass


@dataclass(frozen=True)
class Stencil1D:
    """Offset k and degree m of a sub-stencil inside a 2r window on one axis.

    i is the central cell index on that axis; the stencil nodes are
    x_{i-r+k} .. x_{i-r+k+m}.
    """

    i: int
    r: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.m < 0:
            raise StencilError("need r >= 1 and m >= 0")
        if self.k < 0 or self.k + self.m > 2 * self.r - 1:
            raise StencilError(
                f"offset k={self.k}, m={self.m} falls outside the {2 * self.r}-node window"
            )

    @property
    def start(self) -> int:
        return self.i - self.r + self.k

    @property
    def stop(self) -> int:
        # exclusive
        return self.start + self.m + 1


@dataclass(frozen=True)
class StencilND:
    """Per-axis sub-stencils forming a tensor-product stencil."""

    axes: tuple[Stencil1D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) < 1:
            raise StencilError("need at least one axis")


def resolve_stencil(gf: GridFunction, stencil: StencilND):
    """Per-axis node arrays and the value block selected by a StencilND."""
    if len(stencil.axes) != gf.grid.ndim:
        raise InsufficientStencilError(
            f"stencil has {len(stencil.axes)} axes, grid-function has {gf.grid.ndim}"
        )
    node_lists = []
    slices = []
    for ax, st in zip(gf.grid.axes, stencil.axes):
        if st.start < 0 or st.stop > ax.nodes.size:
            raise InsufficientStencilError(
                f"stencil nodes {st.start}..{st.stop - 1} outside axis of {ax.nodes.size} nodes"
            )
        node_lists.append(ax.nodes[st.start : st.stop])
        slices.append(slice(st.start, st.stop))
    return node_lists, gf.values[tuple(slices)]


def _newton_coefficients(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Divided-difference coefficients; values may be a matrix (nodes x k)."""
    n = nodes.size
    table = values.astype(np.float64).copy()
    coeffs = [table[0].copy()]
    for m in range(1, n):
        table = (table[1:] - table[:-1]) / (nodes[m:] - nodes[:-m]).reshape(
            (-1,) + (1,) * (table.ndim - 1)
        )
        coeffs.append(table[0].copy())
    return np.array(coeffs)


def _newton_to_monomial(nodes: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Expand Newton-form coefficients into monomial coefficients (low to high).

    Nodes and coefficients must already be in the local coordinate used for
    evaluation; the expansion is exact polynomial algebra.
    """
    n = coeffs.shape[0]
    trail = coeffs.shape[1:]
    mono = np.zeros((1,) + trail)
    mono[0] = coeffs[n - 1]
    for a in range(n - 2, -1, -1):
        # multiply by (u - nodes[a]), then add coeffs[a]
        new = np.zeros((mono.shape[0] + 1,) + trail)
        new[1:] += mono
        new[:-1] -= nodes[a] * mono
        new[0] += coeffs[a]
        mono = new
    return mono


def basis_derivative_matrix(nodes, order: int, points) -> np.ndarray:
    """Matrix D with D[q, j] = order-th derivative of Lagrange basis j at points[q].

    order = 0 gives plain basis values. Computed in shifted, scaled local
    coordinates for conditioning; derivatives are exact coefficient algebra on
    the Newton form (no finite differences).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    n = nodes.size
    if order < 0 or order > n - 1:
        raise StencilError(f"derivative order {order} out of range for {n} nodes")
    center = nodes.mean()
    scale = max(nodes.max() - nodes.min(), 1.0e-300) / 2.0
    t = (nodes - center) / scale
    coeffs = _newton_coefficients(t, np.eye(n))
    mono = _newton_to_monomial(t, coeffs)  # shape (n, n): power x basis
    for _ in range(order):
        powers = np.arange(1, mono.shape[0]).reshape(-1, 1)
        mono = mono[1:] * powers
    if mono.shape[0] == 0:
        return np.zeros((points.size, n))
    u = (points - center) / scale
    out = np.zeros((points.size, n))
    for row in mono[::-1]:
        out = out * u[:, None] + row[None, :]
    return out / scale**order
