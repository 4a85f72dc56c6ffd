"""Grid-refinement studies: errors and numerical orders under dyadic refinement.

Both 1-D and 2-D studies run one level loop. Each level builds one grid
function on 2^level cells per axis, evaluates one point set in one batch call
and reports the max error per region. A region is a cell offset s from a
centre cell: s = -4..4 around the jump cell in 1-D, s in (-5..5) x (-4..4)
around the node nearest the origin in 2-D (labelled "s1:s2"). Smooth 2-D
targets report one region, "global", over every full-window cell. A region
no point lands in reports NaN. Orders are log2 ratios of consecutive-level
errors.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .batch import interpolate_batch
from .grid import (
    GridFunction,
    TensorGrid,
    build_perturbed_grid,
    build_random_grid,
    build_uniform_grid,
    locate_cells,
    refine_dyadic,
)
from .testfunctions import get_test_function
from .weno import WenoParams


class BenchConfigError(ValueError):
    """Invalid benchmark configuration."""


_TAU_FULL = (0.3, 0.4, 0.5, 0.6, 0.7)


def tau_values(count: int) -> tuple[float, ...]:
    """Per-axis interior offsets; reduced subsets keep the symmetric spread."""
    if count == 5:
        return _TAU_FULL
    if count == 3:
        return (0.3, 0.5, 0.7)
    if count == 1:
        return (0.5,)
    raise BenchConfigError("2-D eval-points per axis must be 1, 3, or 5")


@dataclass(frozen=True)
class Bench1DConfig:
    function: str
    r: int = 3
    method: str = "progressive"
    grid: str = "uniform"
    seed: int = 0
    level_min: int = 5
    level_max: int = 9
    eval_points: int = 10000


@dataclass(frozen=True)
class Bench2DConfig(Bench1DConfig):
    level_min: int = 4
    level_max: int = 7
    eval_points: int = 5


@dataclass(frozen=True)
class ReportRow:
    level: int
    region: str
    error: float
    order: float | None


@dataclass
class RefinementReport:
    method: str
    r: int
    grid: str
    seed: int
    eval_points: int
    rows: list[ReportRow]
    fallback_points: int = field(default=0, compare=False)


def _order(prev: float | None, cur: float) -> float | None:
    if prev is None:
        return None
    if not (math.isfinite(prev) and math.isfinite(cur)):
        return None
    if prev <= 0.0 or cur <= 0.0:
        return None
    return math.log2(prev / cur)


# per n: the non-uniform grid kind, its coarsest level and its seed axis a
_NONUNIFORM = {
    1: ("random", 5, lambda domain, a, seed: build_random_grid(*domain, 2**5, seed)),
    2: ("perturbed", 4, lambda domain, a, seed: build_perturbed_grid(4, seed + a)),
}


def run_refinement_1d(config: Bench1DConfig) -> RefinementReport:
    return _run(config, 1)


def run_refinement_2d(config: Bench2DConfig) -> RefinementReport:
    return _run(config, 2)


def _run(config: Bench1DConfig, ndim: int) -> RefinementReport:
    tf = get_test_function(config.function)
    if tf.ndim != ndim:
        raise BenchConfigError(f"{tf.name} is not a {ndim}-D function")
    kind, coarsest, seed_axis = _NONUNIFORM[ndim]
    if config.grid not in ("uniform", kind):
        raise BenchConfigError(f"unknown {ndim}-D grid kind {config.grid!r}")
    if ndim == 1 and config.eval_points < 9:
        raise BenchConfigError("need at least one evaluation point per cell")
    min_level = 1 if config.grid == "uniform" else coarsest
    if config.level_min > config.level_max:
        raise BenchConfigError("level range is empty")
    if config.level_min < min_level:
        raise BenchConfigError(f"levels must start at {min_level} or above")
    params = WenoParams(r=config.r, method=config.method)
    tau = np.array(tau_values(config.eval_points)) if ndim == 2 else None
    r = config.r

    # regions are cell offsets -half..half per axis; None is the one global region
    half = (4,) if ndim == 1 else (5, 4) if tf.discontinuous else None
    labels = ["global"] if half is None else [
        ":".join(map(str, s)) for s in itertools.product(*(range(-h, h + 1) for h in half))]
    seeds = None if config.grid == "uniform" else [
        seed_axis(tf.domain[a], a, config.seed) for a in range(ndim)]

    rows: list[ReportRow] = []
    prev: dict[str, float] = {}
    fallback_total = 0
    for level in range(config.level_min, config.level_max + 1):
        if seeds is None:
            axes = [build_uniform_grid(*tf.domain[a], 2**level) for a in range(ndim)]
        else:
            axes = seeds
            for _ in range(level - coarsest):
                axes = [refine_dyadic(g) for g in axes]
        gf = GridFunction.from_callable(TensorGrid(tuple(axes)), tf.fn)
        nodes = [g.nodes for g in axes]
        n_cells = [g.n_cells for g in axes]

        # the cells a..b of each axis that hold the points; cell i spans
        # nodes i-1..i, as locate_cells counts them
        if half is None:
            spans = [(r, m - r + 1) for m in n_cells]       # every full-stencil cell
        else:
            if ndim == 1:
                centre = [int(locate_cells(gf.grid, np.array([[tf.jump_x]]))[0, 0])]
                if centre[0] - 5 < 0 or centre[0] + 4 > n_cells[0]:
                    raise BenchConfigError(f"evaluation window leaves the domain at level {level}")
            else:   # the cell right of the node nearest the origin
                centre = [int(np.argmin(np.abs(n))) + 1 for n in nodes]
            spans = [(c - h, c + h) for c, h in zip(centre, half)]
            if any(a - r < 0 or b + r - 1 > m for (a, b), m in zip(spans, n_cells)):
                what = "stencil" if ndim == 1 else "region"
                raise BenchConfigError(f"{what} windows leave the domain at level {level}")
        if ndim == 1:
            # eval_points points spread evenly over the window, its right end included
            (n,), ((a, b),) = nodes, spans
            k = config.eval_points
            pts = n[a - 1] + (n[b] - n[a - 1]) * np.arange(1, k + 1) / k
        else:
            # tau x tau points in each cell of the window
            coords = []
            for n, (a, b) in zip(nodes, spans):
                x = (n[a - 1 : b, None] + tau * (n[a : b + 1] - n[a - 1 : b])[:, None]).ravel()
                if half is None and config.grid == "perturbed":
                    # a perturbed global study keeps the ~11 cells per axis
                    # nearest the origin (|x| <= 5.5 h), as wide as the region
                    # studies' s1 window, so it shrinks with h as theirs does
                    x = x[np.abs(x) <= 5.5 * 2.0 ** (1 - level)]
                coords.append(x)
            pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, ndim)

        res = interpolate_batch(gf, pts, params)
        fallback_total += int(res.fallback.sum())
        err = np.abs(tf.fn(*(pts.T if ndim > 1 else (pts,))) - res.values)
        # one pass over the points: each goes to the region of its located cell
        if half is None:
            region = np.zeros(err.size, dtype=np.intp)
        else:
            offset, shape = res.cells - [a for a, _ in spans], [2 * h + 1 for h in half]
            inside = np.all((offset >= 0) & (offset < shape), axis=1)
            region, err = np.ravel_multi_index(offset[inside].T, shape), err[inside]
        worst = np.full(len(labels), -np.inf)
        np.maximum.at(worst, region, err)
        for key, e in zip(labels, np.where(worst == -np.inf, np.nan, worst).tolist()):
            rows.append(ReportRow(level, key, e, _order(prev.get(key), e)))
            prev[key] = e
    return RefinementReport(config.method, config.r, config.grid, config.seed,
                            config.eval_points, rows, fallback_total)


def _fmt(x: float | None) -> str:
    if x is None or not math.isfinite(x):
        return ""
    return f"{x:.17g}"


def _to_csv(report: RefinementReport) -> str:
    lines = ["level,region,error,order,method,r,grid,seed"]
    for row in report.rows:
        lines.append(
            f"{row.level},{row.region},{_fmt(row.error)},{_fmt(row.order)},"
            f"{report.method},{report.r},{report.grid},{report.seed}"
        )
    return "\n".join(lines) + "\n"


def _json_value(x: float | None):
    if x is None or not math.isfinite(x):
        return None
    return x


def _to_json(report: RefinementReport) -> str:
    obj = {
        "method": report.method,
        "r": report.r,
        "grid": report.grid,
        "seed": report.seed,
        "eval_points": report.eval_points,
        "fallback_points": report.fallback_points,
        "rows": [
            {
                "level": row.level,
                "region": row.region,
                "error": _json_value(row.error),
                "order": _json_value(row.order),
            }
            for row in report.rows
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def report_to_text(report: RefinementReport, format: str) -> str:
    if format == "csv":
        return _to_csv(report)
    if format == "json":
        return _to_json(report)
    raise BenchConfigError(f"unknown report format {format!r}")
