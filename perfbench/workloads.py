"""The benchmark's four workloads, each a closed loop with one caller.

A workload builds its inputs from the seed (setup), answers them through
pweno's public API (one pass), and checks the answers with oracle.py. Every
pass attempts the same operations, so the failed share of a run does not
depend on how many passes fit in it.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import pweno
import pweno.cli


@dataclass
class Inputs:
    gf: object                          # the grid function queried
    X: np.ndarray                       # (P, n) query points
    params: object                      # WenoParams


def _seed(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _full_window_points(rng, axes, r: int, npts: int) -> np.ndarray:
    """Uniform points in (x_{r-1}, x_{J-r+1}] on every axis, where every cell has a 2r window."""
    cols = []
    for nodes in axes:
        J = nodes.size - 1
        lo, hi = nodes[r - 1], nodes[J - r + 1]
        cols.append(hi - (hi - lo) * rng.random(npts))
    return np.stack(cols, axis=1)


def _failed_ops(masks: dict) -> np.ndarray:
    ok = np.ones_like(next(iter(masks.values())), dtype=bool)
    for m in masks.values():
        ok &= m
    return ~ok


def _describe(masks: dict) -> list[str]:
    return [f"{name}: {int((~m).sum())} points fail" for name, m in masks.items() if not m.all()]


def _range_note(masks: dict) -> None:
    """Drop the n-D data-range check from the counted ones and report it."""
    over = int((~masks.pop("jump_range")).sum())
    if over:
        print(f"note: {over} answers overshoot their window's data range (not counted)",
              file=sys.stderr)


class Workload:
    """Hooks every workload shares; see the module docstring."""

    def cleanup(self) -> None:
        """Remove what the workload wrote (nothing by default)."""


class Batch1D(Workload):
    """One interpolate_batch call: random points on a random 1-D grid over f2."""

    r = 3
    PROBE_SCALES = (1e-100, 1e-160)

    def setup(self, seed: int, small: bool) -> Inputs:
        J, npts = (256, 5000) if small else (1024, 25_000)
        rng = _seed(seed, 1)
        grid = pweno.build_random_grid(0.0, 1.0, J, seed=int(rng.integers(2**31)))
        gf = pweno.GridFunction.from_callable(pweno.TensorGrid((grid,)),
                                              pweno.get_test_function("f2").fn)
        X = _full_window_points(rng, [grid.nodes], self.r, npts)
        return Inputs(gf, X, pweno.WenoParams(r=self.r, method="progressive"))

    def ops(self, inp: Inputs) -> int:
        return inp.X.shape[0]

    def run_pass(self, inp: Inputs):
        res = pweno.interpolate_batch(inp.gf, inp.X[:, 0], inp.params)
        return res.values, res.cells, res.fallback

    def same(self, a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def check(self, inp: Inputs, out):
        values, cells, fallback = out
        nodes = inp.gf.grid.axes[0].nodes
        masks = oracle.check_points(
            values, cells, fallback, inp.X, [nodes], inp.gf.values, self.r,
            target=lambda X: oracle.f2(X[:, 0]),
            smooth_mask=lambda W: (W[0][:, -1] < 2.0 / 3.0) | (W[0][:, 0] >= 2.0 / 3.0),
            deriv_bound=lambda a, W: oracle.f2_deriv_bound(self.r + 1),
        )
        problems = _describe(masks)
        if np.abs(inp.gf.values - oracle.f2(nodes)).max() > 1e-14:
            problems.append("grid data is not the f2 the checks assume")
        return _failed_ops(masks), problems

    def probe(self):
        """Untimed tiny-domain probe: the same small f2 problem with x scaled.

        Each point must match the unscaled answer without the fallback.
        Returns (attempted, failed, problems with the unscaled reference).
        """
        g = pweno.build_uniform_grid(0.0, 1.0, 64)
        values = oracle.f2(g.nodes)
        x = np.linspace(g.nodes[2], g.nodes[62], 52)[1:-1]
        params = pweno.WenoParams(r=self.r)
        ref = pweno.interpolate_batch(pweno.GridFunction(pweno.TensorGrid((g,)), values), x, params)
        problems = [] if not ref.fallback.any() else ["unscaled probe took the fallback"]
        failed = 0
        for scale in self.PROBE_SCALES:
            gs = pweno.GridFunction(pweno.TensorGrid((pweno.Grid1D(g.nodes * scale),)), values)
            with np.errstate(all="ignore"):
                res = pweno.interpolate_batch(gs, x * scale, params)
            bad = (~np.isfinite(res.values) | res.fallback
                   | ~(np.abs(res.values - ref.values) <= 1e-9 * (1.0 + np.abs(ref.values))))
            failed += int(bad.sum())
        return x.size * len(self.PROBE_SCALES), failed, problems


def _f4_bound(r: int):
    # d^m/dx1^m of e^{x1+x2} cos(x1-x2) = Re((1+i)^m e^{(1+i)x1 + (1-i)x2}): |.| <= 2^{m/2} e^{x1+x2}
    return lambda a, W: 2.0 ** ((r + 1) / 2.0) * np.exp(W[0][:, -1] + W[1][:, -1])


class Remap2D(Workload):
    """One semi-Lagrangian step: departure points of every full-window cell, three stages."""

    r = 3
    STAGES = (1.0 / 3.0, 2.0 / 3.0, 1.0)

    def setup(self, seed: int, small: bool) -> Inputs:
        level = 5 if small else 6
        J = 2**level
        r = self.r
        rng = _seed(seed, 2)
        axes = [pweno.build_perturbed_grid(level, int(rng.integers(2**31))) for _ in range(2)]
        gf = pweno.GridFunction.from_callable(pweno.TensorGrid(tuple(axes)),
                                              pweno.get_test_function("f4").fn)
        # one seeded point inside every full-window cell
        n1, n2 = (g.nodes for g in axes)
        full = np.arange(r, J - r + 2)
        I1, I2 = (a.ravel() for a in np.meshgrid(full, full, indexing="ij"))
        u1 = rng.uniform(0.1, 0.9, I1.size)
        u2 = rng.uniform(0.1, 0.9, I1.size)
        x1 = n1[I1 - 1] + u1 * (n1[I1] - n1[I1 - 1])
        x2 = n2[I2 - 1] + u2 * (n2[I2] - n2[I2 - 1])
        # rotation about a seeded centre plus a seeded drift
        c = rng.uniform(-0.2, 0.2, 2)
        omega = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
        drift = rng.uniform(-0.5, 0.5, 2)
        v1 = -omega * (x2 - c[1]) + drift[0]
        v2 = omega * (x1 - c[0]) + drift[1]
        dt = 0.5 * (2.0 / J) / np.sqrt(v1 * v1 + v2 * v2).max()   # at most half a nominal cell
        stages = []
        for frac in self.STAGES:
            cols = []
            for nodes, x, v in ((n1, x1, v1), (n2, x2, v2)):
                lo, hi = nodes[r - 1], nodes[J - r + 1]
                cols.append(np.clip(x - frac * dt * v, np.nextafter(lo, hi), hi))
            stages.append(np.stack(cols, axis=1))
        return Inputs(gf, np.concatenate(stages), pweno.WenoParams(r=r, method="progressive"))

    def ops(self, inp: Inputs) -> int:
        return inp.X.shape[0]

    def run_pass(self, inp: Inputs):
        out = [pweno.interpolate_batch(inp.gf, pts, inp.params)
               for pts in np.split(inp.X, len(self.STAGES))]
        return (np.concatenate([o.values for o in out]), np.concatenate([o.cells for o in out]),
                np.concatenate([o.fallback for o in out]))

    same = Batch1D.same

    def check(self, inp: Inputs, out):
        values, cells, fallback = out
        axes = [ax.nodes for ax in inp.gf.grid.axes]
        masks = oracle.check_points(
            values, cells, fallback, inp.X, axes, inp.gf.values, self.r,
            target=lambda X: oracle.f4(X[:, 0], X[:, 1]),
            smooth_mask=lambda W: (W[0][:, 0] + W[1][:, 0] > 0.0) | (W[0][:, -1] + W[1][:, -1] <= 0.0),
            deriv_bound=_f4_bound(self.r),
        )
        _range_note(masks)
        problems = _describe(masks)
        M1, M2 = np.meshgrid(*axes, indexing="ij")
        if np.abs(inp.gf.values - oracle.f4(M1, M2)).max() > 1e-14 * math.e**2:
            problems.append("grid data is not the f4 the checks assume")
        return _failed_ops(masks), problems


class ND3D(Workload):
    """A 3-D random grid: one interpolate_batch call plus single-point diagnostic calls."""

    r = 2
    JUMP = 1.5

    def setup(self, seed: int, small: bool) -> Inputs:
        J, npts = (10, 12) if small else (24, 50)
        rng = _seed(seed, 4)
        axes = [pweno.build_random_grid(0.0, 1.0, J, seed=int(rng.integers(2**31)))
                for _ in range(3)]
        gf = pweno.GridFunction.from_callable(pweno.TensorGrid(tuple(axes)), oracle.field3)
        X = _full_window_points(rng, [g.nodes for g in axes], self.r, npts)
        return Inputs(gf, X, pweno.WenoParams(r=self.r, method="progressive"))

    def ops(self, inp: Inputs) -> int:
        return 2 * inp.X.shape[0]

    def run_pass(self, inp: Inputs):
        batch = pweno.interpolate_batch(inp.gf, inp.X, inp.params)
        singles, latency = [], []
        clock = time.perf_counter
        for p in range(inp.X.shape[0]):
            t0 = clock()
            res = pweno.interpolate_nd(inp.gf, inp.X[p], inp.params, capture=True)
            latency.append(clock() - t0)
            singles.append(res)
        values = np.concatenate([batch.values, [s.value for s in singles]])
        cells = np.concatenate([batch.cells, [s.cell.i for s in singles]])
        fallback = np.concatenate([batch.fallback, [s.linear_fallback for s in singles]])
        top = np.array([s.neville.values[2 * self.r - 1][(0, 0, 0)] for s in singles])
        return values, cells, fallback, top, np.array(latency)

    def same(self, a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a[:4], b[:4]))

    def latencies(self, out) -> np.ndarray:
        return out[4]

    def check(self, inp: Inputs, out):
        values, cells, fallback, top, _ = out
        axes = [ax.nodes for ax in inp.gf.grid.axes]
        X2 = np.concatenate([inp.X, inp.X])
        masks = oracle.check_points(
            values, cells, fallback, X2, axes, inp.gf.values, self.r,
            target=lambda X: oracle.field3(X[:, 0], X[:, 1], X[:, 2]),
            smooth_mask=lambda W: ((W[0][:, 0] + W[1][:, 0] + W[2][:, 0] > self.JUMP)
                                   | (W[0][:, -1] + W[1][:, -1] + W[2][:, -1] <= self.JUMP)),
            # |d^m/dx_a^m| of sin(x1 + 2 x2) + cos(2 x1 - x3)
            deriv_bound=lambda a, W: (1.0 + 2.0 ** (self.r + 1), 2.0 ** (self.r + 1), 1.0)[a],
        )
        _range_note(masks)
        n = inp.X.shape[0]
        tol = oracle.ROUND * (1.0 + np.abs(values).max())
        agree = np.abs(values[:n] - values[n:]) <= tol
        masks["batch_equals_single"] = np.concatenate([agree, agree])
        masks["capture_top"] = np.concatenate([np.ones(n, bool), np.abs(top - values[n:]) <= tol])
        return _failed_ops(masks), _describe(masks)


# the studies behind the README's claims, at the seeds the README and the
# acceptance tests use (random-grid orders scatter at other seeds)
STUDY_1D = [(fn, grid, seed, r, m)
            for fn, seed in (("f1", 14), ("f2", 4))
            for grid in ("uniform", "random")
            for r in (3, 4)
            for m in ("progressive", "classical")]
STUDY_2D = [(fn, grid, m)
            for fn in ("f4", "f5")
            for grid in ("uniform", "perturbed")
            for m in ("progressive", "classical")]
JUMP_2D = {"f4": 1.0, "f5": 0.1}


class Studies(Workload):
    """Refinement studies run in-process through pweno.cli.main, reports to a scratch directory."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def configs(self, small: bool):
        if small:
            return [("1d", ("f1", "uniform", 0, 3, m), ["--eval-points", "900"])
                    for m in ("progressive", "classical")] + \
                   [("2d", ("f4", "uniform", "progressive"), ["--eval-points", "3"])]
        return ([("1d", c, ["--eval-points", "2000"]) for c in STUDY_1D]
                + [("2d", c, ["--eval-points", "3"]) for c in STUDY_2D])

    def setup(self, seed: int, small: bool) -> list:
        """The studies in a seeded order, each (kind, config, argv, report path)."""
        rng = _seed(seed, 3)
        configs = self.configs(small)
        order = rng.permutation(len(configs))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        parser = pweno.cli.build_parser()
        runs = []
        for k in order:
            kind, c, extra = configs[k]
            if kind == "1d":
                fn, grid, s, r, m = c
                fmt = "json"
                argv = ["bench1d", "--function", fn, "--grid", grid, "--seed", str(s),
                        "--r", str(r), "--method", m]
            else:
                fn, grid, m = c
                fmt = "csv"
                argv = ["bench2d", "--function", fn, "--grid", grid, "--method", m]
            path = self.out_dir / f"study{k:02d}.{fmt}"
            argv += extra + ["--format", fmt, "--out", str(path)]
            parser.parse_args(argv)             # reject a malformed study before timing
            runs.append((kind, c, argv, path))
        return runs

    def ops(self, runs) -> int:
        return len(runs)

    def run_pass(self, runs):
        out = []
        for _, _, argv, path in runs:
            code = pweno.cli.main(argv)
            out.append((code, path.read_text(encoding="utf-8") if path.exists() else ""))
            path.unlink(missing_ok=True)
        return out

    def same(self, a, b) -> bool:
        return a == b

    def check(self, runs, out):
        failed = np.zeros(len(out), dtype=bool)
        problems = []
        for k, ((kind, c, argv, _), (code, text)) in enumerate(zip(runs, out)):
            if code != 0:
                bad = [f"exit code {code}"]
            elif kind == "1d":
                rep = json.loads(text)
                rows = [(row["level"], row["region"],
                         math.nan if row["error"] is None else row["error"]) for row in rep["rows"]]
                bad = oracle.ladder_1d(rows, c[3], c[4], c[1] == "uniform")
            else:
                lines = text.strip().splitlines()
                rows = []
                for line in lines[1:]:
                    level, region, err = line.split(",")[:3]
                    rows.append((int(level), region, float(err) if err else math.nan))
                fn, grid, m = c
                bad = oracle.ladder_2d(rows, 3, m, grid == "uniform", fn == "f4", JUMP_2D[fn])
            if bad:
                failed[k] = True
                problems.append(" ".join(argv[:-4]) + ": " + "; ".join(bad[:3]))
        return failed, problems

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def make(name: str, scratch: Path):
    """The workload called `name`; `scratch` is where studies write reports."""
    if name == "studies":
        return Studies(scratch)
    return {"batch1d": Batch1D, "remap2d": Remap2D, "nd3d": ND3D}[name]()
