"""Grid-refinement studies: errors and numerical orders under dyadic refinement.

1-D runs sample a fixed 10-cell window around the jump cell and report the
max error per neighboring cell; 2-D runs either aggregate globally (smooth
targets) or per region around the node nearest the origin (discontinuous
targets). Orders are log2 ratios of consecutive-level errors.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .batch import interpolate_batch
from .grid import (
    Grid1D,
    GridFunction,
    TensorGrid,
    build_perturbed_grid,
    build_random_grid,
    build_uniform_grid,
    locate_cells_1d,
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
    t: float | None = None


@dataclass(frozen=True)
class Bench2DConfig:
    function: str
    r: int = 3
    method: str = "progressive"
    grid: str = "uniform"
    seed: int = 0
    level_min: int = 4
    level_max: int = 7
    eval_points: int = 5
    t: float | None = None


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


def measure_error(values_true, values_approx) -> float:
    t = np.asarray(values_true, dtype=np.float64)
    a = np.asarray(values_approx, dtype=np.float64)
    if t.shape != a.shape:
        raise ValueError("value lists must have equal length")
    if t.size == 0:
        raise ValueError("value lists must be non-empty")
    return float(np.max(np.abs(t - a)))


def _order(prev: float | None, cur: float) -> float | None:
    if prev is None:
        return None
    if not (math.isfinite(prev) and math.isfinite(cur)):
        return None
    if prev <= 0.0 or cur <= 0.0:
        return None
    return math.log2(prev / cur)


def _params(config) -> WenoParams:
    return WenoParams(r=config.r, method=config.method, t=config.t)


def _check_levels(config, min_allowed: int) -> None:
    if config.level_min > config.level_max:
        raise BenchConfigError("level range is empty")
    if config.level_min < min_allowed:
        raise BenchConfigError(f"levels must start at {min_allowed} or above")


def run_refinement_1d(config: Bench1DConfig) -> RefinementReport:
    tf = get_test_function(config.function)
    if tf.ndim != 1:
        raise BenchConfigError(f"{tf.name} is not a 1-D function")
    if config.grid not in ("uniform", "random"):
        raise BenchConfigError(f"unknown 1-D grid kind {config.grid!r}")
    if config.eval_points < 9:
        raise BenchConfigError("need at least one evaluation point per cell")
    _check_levels(config, 5 if config.grid == "random" else 1)
    params = _params(config)
    a, b = tf.domain[0]

    seed_grid = None
    if config.grid == "random":
        seed_grid = build_random_grid(a, b, 2**5, config.seed)

    rows: list[ReportRow] = []
    prev: dict[str, float] = {}
    fallback_total = 0
    for level in range(config.level_min, config.level_max + 1):
        if config.grid == "uniform":
            g = build_uniform_grid(a, b, 2**level)
        else:
            g = seed_grid
            for _ in range(level - 5):
                g = refine_dyadic(g)
        gf = GridFunction.from_callable(TensorGrid((g,)), tf.fn)
        nodes = g.nodes
        if tf.jump_x is not None:
            j0 = int(locate_cells_1d(nodes, np.array([tf.jump_x]))[0])
        else:
            j0 = (g.n_cells + 1) // 2
        if j0 - 5 < 0 or j0 + 4 > g.n_cells:
            raise BenchConfigError(f"evaluation window leaves the domain at level {level}")
        if (j0 - 4) - config.r < 0 or (j0 + 4) + config.r - 1 > g.n_cells:
            raise BenchConfigError(f"stencil windows leave the domain at level {level}")
        lo, hi = nodes[j0 - 5], nodes[j0 + 4]
        n = config.eval_points
        pts = lo + (hi - lo) * np.arange(1, n + 1) / n
        res = interpolate_batch(gf, pts, params)
        fallback_total += int(res.fallback.sum())
        err = np.abs(tf.fn(pts) - res.values)
        s_of_pt = res.cells[:, 0] - j0
        for s in range(-4, 5):
            mask = s_of_pt == s
            e = float(err[mask].max()) if mask.any() else float("nan")
            key = str(s)
            rows.append(ReportRow(level, key, e, _order(prev.get(key), e)))
            prev[key] = e
    return RefinementReport(config.method, config.r, config.grid, config.seed,
                            config.eval_points, rows, fallback_total)


def _axes_2d(config: Bench2DConfig, level: int) -> tuple[Grid1D, Grid1D]:
    if config.grid == "uniform":
        ax = build_uniform_grid(-1.0, 1.0, 2**level)
        return ax, ax
    ax1 = build_perturbed_grid(4, config.seed)
    ax2 = build_perturbed_grid(4, config.seed + 1)
    for _ in range(level - 4):
        ax1 = refine_dyadic(ax1)
        ax2 = refine_dyadic(ax2)
    return ax1, ax2


def run_refinement_2d(config: Bench2DConfig) -> RefinementReport:
    tf = get_test_function(config.function)
    if tf.ndim != 2:
        raise BenchConfigError(f"{tf.name} is not a 2-D function")
    if config.grid not in ("uniform", "perturbed"):
        raise BenchConfigError(f"unknown 2-D grid kind {config.grid!r}")
    _check_levels(config, 4 if config.grid == "perturbed" else 1)
    params = _params(config)
    tau = np.array(tau_values(config.eval_points))

    rows: list[ReportRow] = []
    prev: dict[str, float] = {}
    fallback_total = 0
    for level in range(config.level_min, config.level_max + 1):
        ax1, ax2 = _axes_2d(config, level)
        gf = GridFunction.from_callable(TensorGrid((ax1, ax2)), tf.fn)
        if tf.discontinuous:
            new_rows, fb = _region_study(gf, tf, params, tau, level, prev)
        else:
            new_rows, fb = _global_study(gf, tf, params, tau, level, prev, config)
        rows.extend(new_rows)
        fallback_total += fb
    return RefinementReport(config.method, config.r, config.grid, config.seed,
                            config.eval_points, rows, fallback_total)


def _region_study(gf, tf, params, tau, level, prev):
    """Per-region errors around the node nearest the origin (jump studies)."""
    r = params.r
    n1 = gf.grid.axes[0].nodes
    n2 = gf.grid.axes[1].nodes
    c1 = int(np.argmin(np.abs(n1)))
    c2 = int(np.argmin(np.abs(n2)))
    s1_range = range(-5, 6)
    s2_range = range(-4, 5)
    if (c1 - 5 + 1) - r < 0 or (c1 + 5 + 1) + r - 1 > gf.grid.axes[0].n_cells:
        raise BenchConfigError(f"region windows leave the domain at level {level}")
    if (c2 - 4 + 1) - r < 0 or (c2 + 4 + 1) + r - 1 > gf.grid.axes[1].n_cells:
        raise BenchConfigError(f"region windows leave the domain at level {level}")

    # region (s1, s2) holds the tau x tau points of cell (c1 + s1, c2 + s2),
    # regions in row-major (s1, s2) order and tau1 before tau2 within each
    j1 = c1 + np.array(s1_range)
    j2 = c2 + np.array(s2_range)
    x1 = n1[j1, None] + tau * (n1[j1 + 1] - n1[j1])[:, None]
    x2 = n2[j2, None] + tau * (n2[j2 + 1] - n2[j2])[:, None]
    pts = np.empty((len(s1_range), len(s2_range), tau.size, tau.size, 2))
    pts[..., 0] = x1[:, None, :, None]
    pts[..., 1] = x2[None, :, None, :]
    pts = pts.reshape(-1, 2)

    regions = [(s1, s2) for s1 in s1_range for s2 in s2_range]
    res = interpolate_batch(gf, pts, params)
    err = np.abs(tf.fn(pts[:, 0], pts[:, 1]) - res.values)

    rows = []
    npr = tau.size * tau.size
    for idx, (s1, s2) in enumerate(regions):
        e = float(err[idx * npr : (idx + 1) * npr].max())
        key = f"{s1}:{s2}"
        rows.append(ReportRow(level, key, e, _order(prev.get(key), e)))
        prev[key] = e
    return rows, int(res.fallback.sum())


def _global_study(gf, tf, params, tau, level, prev, config):
    """One aggregate error per level over every full-window cell (smooth studies)."""
    r = params.r
    coords = []
    for axis in range(2):
        nodes = gf.grid.axes[axis].nodes
        ncells = gf.grid.axes[axis].n_cells
        left = nodes[r - 1 : ncells - r + 1]
        right = nodes[r : ncells - r + 2]
        pts = (left[:, None] + tau[None, :] * (right - left)[:, None]).ravel()
        if config.grid == "perturbed":
            half = 5.5 * 2.0 ** (1 - level)
            pts = pts[np.abs(pts) <= half]
        coords.append(pts)
    g1, g2 = np.meshgrid(coords[0], coords[1], indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    if pts.shape[0] == 0:
        e = float("nan")
        row = ReportRow(level, "global", e, _order(prev.get("global"), e))
        prev["global"] = e
        return [row], 0
    res = interpolate_batch(gf, pts, params)
    e = measure_error(tf.fn(pts[:, 0], pts[:, 1]), res.values)
    row = ReportRow(level, "global", e, _order(prev.get("global"), e))
    prev["global"] = e
    return [row], int(res.fallback.sum())


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


def emit_report(report: RefinementReport, format: str, path) -> None:
    Path(path).write_text(report_to_text(report, format), encoding="utf-8")


def report_from_json(path) -> RefinementReport:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = [
        ReportRow(
            int(row["level"]),
            str(row["region"]),
            float("nan") if row["error"] is None else float(row["error"]),
            None if row["order"] is None else float(row["order"]),
        )
        for row in obj["rows"]
    ]
    return RefinementReport(obj["method"], int(obj["r"]), obj["grid"],
                            int(obj["seed"]), int(obj["eval_points"]), rows,
                            int(obj.get("fallback_points", 0)))
