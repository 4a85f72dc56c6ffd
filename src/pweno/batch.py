"""Many query points at once through the WENO engine of weno.py.

interpolate_batch runs the same engine as interpolate_nd, for any dimension,
on all points together: it runs them in chunks of a fixed byte budget,
sorted by their first coordinate when they fill more than one, so its
memory does not grow with the number of points, and builds indicator tables
in one call, once per distinct cell the grid function has not built yet.
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
    fallback: np.ndarray


def interpolate_batch(gf: GridFunction, points, params: WenoParams) -> BatchResult:
    """Evaluate many query points at once; each equals interpolate_nd's answer.

    points has shape (npts, n), or (npts,) for 1-D data; npts may be 0.
    """
    return BatchResult(*evaluate(gf, _as_points(points, gf.grid.ndim), params)[:3])
