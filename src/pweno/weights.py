"""Linear (optimal) interpolation weights.

All formulas act on a window of 2r nodes per axis, w[0] .. w[2r-1], holding
the central cell (w[r-1], w[r]]. Level l runs from r to 2r-2: a level-(l+1)
interpolant on nodes w[j] .. w[j+l+1] is the affine pair combination of the
two level-l interpolants on w[j] .. w[j+l] and w[j+1] .. w[j+l+1]. The same
pair formula at levels 0..r-1 is Neville's recurrence for the base
interpolants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class WeightPair:
    """Affine pair weights: c_keep on the left child, c_shift on the right."""

    c_keep: float
    c_shift: float


@dataclass(frozen=True)
class OptimalWeights:
    """Per-substencil weights C^r_k, k in {0..r-1}^n (array of shape (r,)*n)."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


def _check_window(w: np.ndarray) -> int:
    if w.ndim < 1 or w.shape[-1] < 2 or w.shape[-1] % 2 != 0:
        raise WeightError("window must hold 2r nodes")
    return w.shape[-1] // 2


def _check_level(r: int, l: int, j: int) -> None:
    if not r <= l <= 2 * r - 2:
        raise WeightError(f"level l={l} out of range [{r}, {2 * r - 2}]")
    if not 0 <= j <= 2 * r - 2 - l:
        raise WeightError(f"index j={j} out of range [0, {2 * r - 2 - l}] at level {l}")


def pair_keep(windows: np.ndarray, x: np.ndarray, l: int, j: np.ndarray) -> np.ndarray:
    """Left pair weights c_keep = (x - w[j+l+1]) / (w[j] - w[j+l+1]).

    windows has shape (..., 2r) and x shape (...); j is an integer array of
    pair indices. Returns shape (..., j.size). No range checks.
    """
    x = np.asarray(x, dtype=np.float64)[..., None]
    right = windows[..., j + l + 1]
    return (x - right) / (windows[..., j] - right)


def weight_pair_general(window_nodes, l: int, j: int, x_star: float) -> WeightPair:
    """Pair weights on an arbitrary grid; both are in (0, 1) for x* inside
    the central cell."""
    w = np.asarray(window_nodes, dtype=np.float64)
    if w.ndim != 1:
        raise WeightError("window must hold 2r nodes")
    _check_level(_check_window(w), l, j)
    c_keep = float(pair_keep(w, x_star, l, np.array([j]))[0])
    return WeightPair(c_keep, 1.0 - c_keep)


def classical_optimal_general(window_nodes, x_star) -> OptimalWeights:
    """Optimal weights of the r base sub-stencils at arbitrary points.

    window_nodes has shape (..., 2r) and x_star shape (...); the weights
    have shape (..., r). Accumulates the affine pair weights down the
    Neville triangle by dynamic programming (top entry has weight 1); the
    result makes the convex combination of the base interpolants equal the
    full 2r-node interpolant.
    """
    w = np.asarray(window_nodes, dtype=np.float64)
    r = _check_window(w)
    acc = np.ones(w.shape[:-1] + (1,))
    for l in range(2 * r - 2, r - 1, -1):
        # distribute level-(l+1) weights onto level-l entries
        keep = pair_keep(w, x_star, l, np.arange(acc.shape[-1]))
        nxt = np.zeros(w.shape[:-1] + (acc.shape[-1] + 1,))
        nxt[..., :-1] += acc * keep
        nxt[..., 1:] += acc * (1.0 - keep)
        acc = nxt
    return OptimalWeights(acc)
