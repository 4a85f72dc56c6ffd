"""Many query points at once through the WENO engine of weno.py.

interpolate_batch runs the same engine as interpolate_nd, for any dimension,
on all points together: windows are gathered per point and indicator tables
are built once per distinct cell, and only for cells no earlier call on the
same grid function built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .weno import WenoParams, _as_points, evaluate


@dataclass
class BatchResult:
    values: np.ndarray
    cells: np.ndarray
    base_min: np.ndarray
    base_max: np.ndarray
    fallback: np.ndarray


def interpolate_batch(gf: GridFunction, points, params: WenoParams) -> BatchResult:
    """Evaluate many query points at once; each equals interpolate_nd's answer.

    points has shape (npts, n), or (npts,) for 1-D data; npts may be 0.
    """
    pts = _as_points(points, gf.grid.ndim)
    ev = evaluate(gf, pts, params)
    base = ev.base.reshape(pts.shape[0], params.r ** gf.grid.ndim)
    return BatchResult(ev.values, ev.cells, base.min(axis=1), base.max(axis=1), ev.fallback)
