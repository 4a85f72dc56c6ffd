"""Many query points at once through the WENO engine of weno.py.

interpolate_batch runs the same engine as interpolate_nd, for any dimension,
on all points together: windows are gathered per point and indicator tables
are built once per distinct cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .weno import WenoParams, evaluate


@dataclass
class BatchResult:
    values: np.ndarray
    cells: np.ndarray
    base_min: np.ndarray
    base_max: np.ndarray
    fallback: np.ndarray


def _as_points(points, ndim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if ndim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != ndim:
        raise ValueError(f"points must have shape (npts, {ndim})")
    return pts


def interpolate_batch(
    gf: GridFunction,
    points,
    params: WenoParams,
    smoothness_override: np.ndarray | None = None,
) -> BatchResult:
    """Evaluate many query points at once; each equals interpolate_nd's answer."""
    n = gf.grid.ndim
    pts = _as_points(points, n)
    if pts.shape[0] == 0:
        z = np.zeros(0)
        return BatchResult(z, np.zeros((0, n), dtype=np.intp), z.copy(), z.copy(),
                           np.zeros(0, dtype=bool))
    ev = evaluate(gf, pts, params, smoothness_override)
    base = ev.base.reshape(pts.shape[0], -1)
    return BatchResult(ev.values, ev.cells, base.min(axis=1), base.max(axis=1), ev.fallback)
