"""Linear (optimal) interpolation weights.

All formulas act on a window of 2r nodes per axis, w[0] .. w[2r-1], holding
the central cell (w[r-1], w[r]]. Level l runs from r to 2r-2: a level-(l+1)
interpolant on nodes w[j] .. w[j+l+1] is the affine pair combination of the
two level-l interpolants on w[j] .. w[j+l] and w[j+1] .. w[j+l+1]. The same
pair formula at levels 0..r-1 is Neville's recurrence for the base
interpolants.
"""
from __future__ import annotations

import numpy as np


def pair_keep(windows: np.ndarray, x: np.ndarray, l: int, j: np.ndarray) -> np.ndarray:
    """Left pair weights c_keep = (x - w[j+l+1]) / (w[j] - w[j+l+1]).

    windows has shape (..., 2r) and x shape (...); j is an integer array of
    pair indices. Returns shape (..., j.size); the right weight is
    1 - c_keep, and both lie in (0, 1) for x inside the central cell. No
    range checks.
    """
    x = np.asarray(x, dtype=np.float64)[..., None]
    right = windows[..., j + l + 1]
    return (x - right) / (windows[..., j] - right)


def classical_optimal_general(window_nodes, x_star) -> np.ndarray:
    """Optimal weights of the r base sub-stencils at arbitrary points.

    window_nodes has shape (..., 2r) and x_star shape (...); the weights
    have shape (..., r). Accumulates the affine pair weights down the
    Neville triangle by dynamic programming (top entry has weight 1); the
    result makes the convex combination of the base interpolants equal the
    full 2r-node interpolant.
    """
    w = np.asarray(window_nodes, dtype=np.float64)
    r = w.shape[-1] // 2
    acc = np.ones(w.shape[:-1] + (1,))
    for l in range(2 * r - 2, r - 1, -1):
        # distribute level-(l+1) weights onto level-l entries
        keep = pair_keep(w, x_star, l, np.arange(acc.shape[-1]))
        nxt = np.zeros(w.shape[:-1] + (acc.shape[-1] + 1,))
        nxt[..., :-1] += acc * keep
        nxt[..., 1:] += acc * (1.0 - keep)
        acc = nxt
    return acc
