"""Linear pair weights: the one coefficient of every Neville step.

All formulas act on a window of 2r nodes per axis, w[0] .. w[2r-1], holding
the central cell (w[r-1], w[r]]. A level-(l+1) interpolant on nodes
w[j] .. w[j+l+1] is the affine pair combination of the two level-l
interpolants on w[j] .. w[j+l] and w[j+1] .. w[j+l+1]. Steps 0..r-1 give
the base interpolants, steps r..2r-2 the full one, and run on the identity
they give the classical optimal weights (weno._optimal_weights).
"""
from __future__ import annotations

import numpy as np


def _pair_keep(windows: np.ndarray, numerators: np.ndarray, l: int) -> np.ndarray:
    """Left pair weights c_keep = (x - w[j+l+1]) / (w[j] - w[j+l+1]) of level l.

    windows has shape (m, ...), m = 2r, the window axis first, and numerators
    are x - w[k:], k <= l + 1, x of shape (...), so levels can share them. A
    level-l array has m - l entries, so the m - l - 1 pairs j = 0..m-l-2 give
    shape (m - l - 1, ...). The right weight is 1 - c_keep; both lie in (0, 1)
    for x inside the central cell. No range checks.
    """
    right = windows[l + 1:]
    return numerators[-len(right):] / (windows[:-l - 1] - right)
