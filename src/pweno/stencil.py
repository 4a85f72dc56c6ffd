"""Sub-stencils and the derivative matrices of their Lagrange bases.

A window holds the 2r nodes per axis centered on the query cell. A sub-stencil
of width m+1 starts at offset k inside the window (nodes w[k] .. w[k+m]).
Derivative samples come from the Newton form of the Lagrange basis,
differentiated coefficient-wise, for many stencils in one batched call.
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


def basis_derivative_matrix(nodes, order: int, points) -> np.ndarray:
    """Matrix D with D[q, j] = order-th derivative of Lagrange basis j at points[q].

    order = 0 gives plain basis values. A one-stencil call of
    derivative_samples, in x units.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    n = nodes.size
    if order < 0 or order > n - 1:
        raise StencilError(f"derivative order {order} out of range for {n} nodes")
    return derivative_samples(nodes[None], points[None], 1.0)[0, order]
