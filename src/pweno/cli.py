"""Command-line front end: refinement benchmarks and one-off interpolation."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .batch import interpolate_batch
from .bench import (
    Bench1DConfig,
    Bench2DConfig,
    BenchConfigError,
    report_to_text,
    run_refinement_1d,
    run_refinement_2d,
)
from .grid import GridFunction
from .weno import METHODS, WenoParams, _as_points


def _parse_levels(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise BenchConfigError(f"levels must look like LMIN..LMAX, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise BenchConfigError(f"levels must be integers, got {text!r}") from None


def _add_bench_flags(p, functions, grids, config):
    p.add_argument("--function", required=True, choices=functions)
    p.add_argument("--r", type=int, default=config.r)
    p.add_argument("--method", choices=METHODS, default=config.method)
    p.add_argument("--grid", choices=grids, default=config.grid)
    p.add_argument("--seed", type=int, default=config.seed)
    p.add_argument("--levels", default=f"{config.level_min}..{config.level_max}",
                   metavar="LMIN..LMAX")
    p.add_argument("--eval-points", type=int, default=config.eval_points)
    p.add_argument("--t", type=float, default=config.t)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if the linear-weight fallback was triggered")
    p.set_defaults(func=_cmd_bench)


def _finish(text: str, out, strict: bool, fallback_points: int) -> int:
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if strict and fallback_points > 0:
        print(f"error: linear fallback triggered at {fallback_points} points",
              file=sys.stderr)
        return 3
    return 0


def _cmd_bench(args) -> int:
    lo, hi = _parse_levels(args.levels)
    one_d = args.command == "bench1d"
    config = (Bench1DConfig if one_d else Bench2DConfig)(
        function=args.function, r=args.r, method=args.method, grid=args.grid,
        seed=args.seed, level_min=lo, level_max=hi,
        eval_points=args.eval_points, t=args.t,
    )
    report = run_refinement_1d(config) if one_d else run_refinement_2d(config)
    return _finish(report_to_text(report, args.format), args.out, args.strict,
                   report.fallback_points)


def _cmd_interp(args) -> int:
    data = json.loads(Path(args.data).read_text(encoding="utf-8"))
    gf = GridFunction.from_dict(data)
    queries = json.loads(Path(args.query).read_text(encoding="utf-8"))
    pts = _as_points(queries, gf.grid.ndim)
    res = interpolate_batch(gf, pts, WenoParams(r=args.r, method=args.method))
    out = [{"point": p.tolist(), "value": float(v)} for p, v in zip(pts, res.values)]
    text = json.dumps(out, indent=2) + "\n"
    return _finish(text, args.out, args.strict, int(res.fallback.sum()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pweno",
        description="WENO interpolation benchmarks on refining grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("bench1d", help="1-D jump-window refinement study")
    _add_bench_flags(p1, ("f1", "f2"), ("uniform", "random"), Bench1DConfig)

    p2 = sub.add_parser("bench2d", help="2-D refinement study")
    _add_bench_flags(p2, ("f3", "f4", "f5"), ("uniform", "perturbed"), Bench2DConfig)

    p3 = sub.add_parser("interp", help="interpolate stored grid data at query points")
    p3.add_argument("--data", required=True, help="grid-function JSON file")
    p3.add_argument("--query", required=True, help="JSON list of query points")
    p3.add_argument("--r", type=int, default=3)
    p3.add_argument("--method", choices=METHODS, default="progressive")
    p3.add_argument("--out", default=None)
    p3.add_argument("--strict", action="store_true")
    p3.set_defaults(func=_cmd_interp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
