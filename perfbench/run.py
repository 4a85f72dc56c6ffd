"""pweno benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload batch1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload remap2d --repeat 10 --seconds 20
    python3 perfbench/run.py --selfcheck

The last line of a run is one JSON object: correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. pweno is imported from the src/ directory next to this one.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch1d", "remap2d", "studies", "nd3d")
SETUP_REPEATS = 15
# The reference kernel's time in a quiet phase of the 2-core machine the
# bounds were set on; timed end-to-end values are scaled to it (see README).
REF_NOMINAL_S = 0.040

END_TO_END = [("setup_s", "s", "lower"), ("run_s", "s", "lower"),
              ("points_per_s", "points/s", "higher"), ("peak_rss_mb", "MB", "lower")]

# per-layer metric -> (span name, statistic); statistics are per traced round
LAYER_METRICS = {
    "smoothness.samples_s": ("smoothness.samples", "busy"),
    "smoothness.samples_self_s": ("smoothness.samples", "self"),
    "smoothness.samples_calls": ("smoothness.samples", "calls"),
    "smoothness.quadrature_s": ("smoothness.quadrature", "busy"),
    "smoothness.quadrature_calls": ("smoothness.quadrature", "calls"),
    "stencil.deriv_s": ("stencil.deriv", "busy"),
    "stencil.deriv_calls": ("stencil.deriv", "calls"),
    "batch.interp_s": ("batch.interp", "busy"),
    "batch.self_s": ("batch.interp", "self"),
    "batch.calls": ("batch.interp", "calls"),
    "smoothness.table_s": ("smoothness.table", "busy"),
    "smoothness.table_self_s": ("smoothness.table", "self"),
    "smoothness.table_calls": ("smoothness.table", "calls"),
    "stencil.eval_s": ("stencil.eval", "busy"),
    "stencil.eval_calls": ("stencil.eval", "calls"),
    "weights.pair_s": ("weights.pair", "busy"),
    "weights.pair_calls": ("weights.pair", "calls"),
    "weno.interp_s": ("weno.interp", "busy"),
    "weno.interp_self_s": ("weno.interp", "self"),
    "weno.interp_calls": ("weno.interp", "calls"),
    "weno.nonlinear_s": ("weno.nonlinear", "busy"),
    "weno.nonlinear_calls": ("weno.nonlinear", "calls"),
    "grid.locate_s": ("grid.locate", "busy"),
    "grid.locate_calls": ("grid.locate", "calls"),
    "grid.build_s": ("grid.build", "busy"),
    "grid.build_calls": ("grid.build", "calls"),
    "bench.study_s": ("bench.study", "busy"),
    "bench.self_s": ("bench.study", "self"),
    "bench.study_calls": ("bench.study", "calls"),
    "cli.main_s": ("cli.main", "busy"),
    "cli.self_s": ("cli.main", "self"),
    "cli.main_calls": ("cli.main", "calls"),
}
DERIVED_METRICS = [("weno.point_p50_ms", "ms"), ("weno.point_p95_ms", "ms"),
                   ("smoothness.rebuild_ratio", "ratio"), ("trace.pass_s", "s"),
                   ("trace.untraced_pass_s", "s"), ("trace.overhead", "ratio"),
                   ("trace.self_sum_s", "s")]
PER_LAYER = [(name, "count" if stat == "calls" else "s")
             for name, (_, stat) in LAYER_METRICS.items()] + DERIVED_METRICS


def reference_kernel() -> float:
    """A fixed mix of small numpy calls in a Python loop, like pweno's cell
    loops, that uses no pweno code. Returns its wall time in seconds."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 5)
    acc = 0.0
    for k in range(3000):
        m = np.vander(x + k * 1e-6, 5)
        acc += float((m @ m.T).sum()) + float(np.diff(x).max())
    return time.perf_counter() - t0


def _import_pweno():
    """Put the checkout's src/ first on the path and import pweno from it."""
    src = ROOT / "src"
    if not (src / "pweno" / "__init__.py").is_file():
        raise SystemExit(f"error: no pweno package under {src}")
    sys.path.insert(0, str(src))
    import pweno
    if Path(pweno.__file__).resolve().parent != (src / "pweno").resolve():
        raise SystemExit(f"error: pweno imported from {pweno.__file__}, not {src}")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median(xs):
    return float(statistics.median(xs))


@dataclass
class PassLog:
    """What the passes of one run left behind."""

    first: object = None                # answers of the first pass
    mismatched: int = 0                 # later passes whose answers differ
    walls: list = field(default_factory=list)      # untraced pass wall times
    scaled: list = field(default_factory=list)     # the same, at reference speed
    rates: list = field(default_factory=list)      # points/s inside engine calls, at reference speed
    latency: list = field(default_factory=list)    # single-point call wall times
    rounds: list = field(default_factory=list)     # traced: (pass wall, scaled wall, stats, cell rows, pass self)

    @property
    def passes(self) -> int:
        return len(self.walls) + len(self.rounds)


def _timed_setup(wl, seed: int, small: bool, repeats: int):
    """Median set-up time at reference speed, the raw median, and the inputs."""
    before = reference_kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inp = wl.setup(seed, small)
        times.append(time.perf_counter() - t0)
    speed = REF_NOMINAL_S / (0.5 * (before + reference_kernel()))
    return _median(times) * speed, _median(times), inp


def _run_passes(wl, inp, seed: int, small: bool, seconds: float, traced: bool, tracer) -> PassLog:
    """Passes until the next one would overrun `seconds` (at least one).

    Each pass is bracketed by runs of the reference kernel; their mean sets
    the pass's speed factor. A traced run spends its first half on untraced
    passes (the reference for the tracing overhead) and its second half on
    traced rounds of one set-up plus one pass.
    """
    import spans

    log = PassLog()
    ref = reference_kernel()
    t_start = time.perf_counter()
    while True:
        layered = traced and log.walls and time.perf_counter() - t_start >= seconds / 2
        with tracer.installed(spans.LAYER_SITES if layered else spans.ENGINE_SITES):
            lo = tracer.mark()
            if layered:
                inp = wl.setup(seed, small)
            mid = tracer.mark()
            t0 = time.perf_counter()
            out = wl.run_pass(inp)
            t1 = time.perf_counter()
            hi = tracer.mark()
        ref_next = reference_kernel()
        speed = REF_NOMINAL_S / (0.5 * (ref + ref_next))
        ref = ref_next
        if layered:
            pass_self = sum(st["self"] for st in tracer.layer_stats(mid, hi).values())
            log.rounds.append((t1 - t0, (t1 - t0) * speed, tracer.layer_stats(lo, hi),
                               tracer.distinct_cell_rows(lo, hi), pass_self))
        else:
            busy, points = tracer.engine_work(lo, hi)
            log.walls.append(t1 - t0)
            log.scaled.append((t1 - t0) * speed)
            if busy > 0:
                log.rates.append(points / (busy * speed))
            if hasattr(wl, "latencies"):
                log.latency.extend(wl.latencies(out))
        tracer.queries.clear()              # the answers' cells are counted; let them go
        if log.first is None:
            log.first = out
        elif not wl.same(log.first, out):
            log.mismatched += 1
        if t1 - t_start + (t1 - t0) > seconds and (not traced or log.rounds):
            return log


def _verify(wl, inp, log: PassLog):
    """Check the answers; (attempted, failed, correct) over all passes and probes."""
    failed_mask, problems = wl.check(inp, log.first)
    ops = wl.ops(inp)
    attempted = log.passes * ops
    failed = log.passes * int(failed_mask.sum()) + log.mismatched * ops
    if log.mismatched:
        problems.append(f"{log.mismatched} passes differ from the first")
    if hasattr(wl, "probe"):
        for _ in range(log.passes):
            p_attempted, p_failed, p_problems = wl.probe()
            attempted += p_attempted
            failed += p_failed
        problems += p_problems
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    return attempted, failed, not problems


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False):
    """One run: set-up, timed passes, checks and (batch1d) the probe."""
    import spans
    import workloads

    scratch = ROOT / ".perfbench_out"
    wl = workloads.make(name, scratch / f"{name}-{os.getpid()}")
    tracer = spans.Tracer()
    try:
        setup_s, setup_raw, inp = _timed_setup(wl, seed, small, 1 if traced else SETUP_REPEATS)
        log = _run_passes(wl, inp, seed, small, seconds, traced, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before the checks
        attempted, failed, correct = _verify(wl, inp, log)
        if traced:
            scratch.mkdir(exist_ok=True)
            tracer.write(scratch / f"spans-{name}-seed{seed}.csv")
    finally:
        wl.cleanup()
    if traced:
        metrics = _layer_metrics(log)
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": setup_s, "run_s": _median(log.scaled),
                   "points_per_s": _median(log.rates),
                   "peak_rss_mb": rss_mb}
        units = {n: u for n, u, _ in END_TO_END}
        print(f"{name} wall: pass median {_median(log.walls):.6g} s, "
              f"set-up median {setup_raw:.6g} s")
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    print(f"{name} passes {log.passes} attempted {attempted} failed {failed}")
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: _metric(v, units[k]) for k, v in metrics.items()}}


def _layer_metrics(log: PassLog) -> dict:
    """Per-layer metrics: medians of times over traced rounds, counts of the
    first round (they repeat exactly). Point latencies come from the
    untraced passes (0 when a workload makes no single-point calls)."""
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        vals = [stats[span][stat] if span in stats else 0 for _, _, stats, _, _ in log.rounds]
        out[metric] = vals[0] if stat == "calls" else _median(vals)
    rows = log.rounds[0][3]
    out["smoothness.rebuild_ratio"] = out["smoothness.samples_calls"] / rows if rows else 0.0
    ms = np.asarray(log.latency) * 1e3
    out["weno.point_p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    out["weno.point_p95_ms"] = float(np.percentile(ms, 95)) if ms.size else 0.0
    out["trace.pass_s"] = _median([r[0] for r in log.rounds])
    out["trace.untraced_pass_s"] = _median(log.walls)
    out["trace.overhead"] = _median([r[1] for r in log.rounds]) / _median(log.scaled) - 1.0
    out["trace.self_sum_s"] = _median([r[4] for r in log.rounds])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(name: str, count: int, seconds: float, traced: bool, first_seed: int) -> int:
    """Run one workload `count` times in fresh processes, one after another,
    and print each metric's median, quartiles and spread (IQR / median)."""
    results = []
    for seed in range(first_seed, first_seed + count):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
              + f" correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
        results.append(res)
    summary = {}
    for key in results[0]["metrics"]:
        vals = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = _quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name} {key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{name} failed shares {shares} correct {all(r['correct'] for r in results)}")
    print(json.dumps({"workload": name, "runs": len(results), "metrics": summary}))
    return 0


def selfcheck() -> int:
    """Small runs of every workload, plus proof that the checks bite and that
    the printed names match BENCHMARK.json."""
    import oracle
    import workloads

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != {n: u for n, u, _ in END_TO_END}:
        problems.append("end-to-end metrics differ from BENCHMARK.json")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != dict(PER_LAYER):
        problems.append("per-layer metrics differ from BENCHMARK.json")
    for name in WORKLOADS:
        for traced in (False, True):
            res = run_workload(name, seed=1, seconds=0.0, traced=traced, small=True)
            want = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            if sorted(res["metrics"]) != sorted(want):
                problems.append(f"{name} trace={int(traced)} prints other metric names")
            if not res["correct"]:
                problems.append(f"{name} trace={int(traced)} fails its checks")
            expect_failed = name == "batch1d"
            if (res["failed"] > 0) != expect_failed:
                problems.append(f"{name}: failed={res['failed']} (probe failures expected: {expect_failed})")

    # the point checks reject answers nudged just outside the sub-stencil hull,
    # in 1-D and 2-D, and wrong cells or a fallback
    for wl, stride in ((workloads.Batch1D(), 97), (workloads.Remap2D(), 53)):
        inp = wl.setup(1, small=True)
        values, cells, fallback = wl.run_pass(inp)
        W, idx = oracle.windows([ax.nodes for ax in inp.gf.grid.axes], cells, wl.r)
        top = oracle.substencil_values(W, oracle.window_values(inp.gf.values, idx), inp.X,
                                       wl.r).max(axis=1)
        nudged = values.copy()
        nudged[::stride] = top[::stride] + 1e-6 * (1.0 + np.abs(top[::stride]))
        failed, _ = wl.check(inp, (nudged, cells, fallback))
        if not failed[::stride].all() or failed.sum() != failed[::stride].size:
            problems.append(f"{type(wl).__name__}: {int(failed.sum())} flagged, "
                            f"{failed[::stride].size} nudged outside the hull")
    shifted = cells.copy()
    shifted[::89] += 1
    if not wl.check(inp, (values, shifted, fallback))[0][::89].all():
        problems.append("wrong cells not flagged")
    if not wl.check(inp, (values, cells, np.ones_like(fallback)))[0].all():
        problems.append("fallback not flagged")

    # a single-point answer that differs from the batch one
    wl = workloads.ND3D()
    inp = wl.setup(1, small=True)
    values, cells, fallback, top, latency = wl.run_pass(inp)
    values = values.copy()
    values[-1] += 1e-6
    if wl.check(inp, (values, cells, fallback, top, latency))[0].sum() < 2:
        problems.append("batch/single disagreement not flagged")

    # the order ladder rejects orders of the wrong method
    import pweno
    reports = {m: pweno.run_refinement_1d(pweno.Bench1DConfig("f1", r=3, method=m, eval_points=900))
               for m in ("progressive", "classical", "linear")}
    rows = {m: [(row.level, row.region, row.error) for row in rep.rows] for m, rep in reports.items()}
    if oracle.ladder_1d(rows["progressive"], 3, "progressive", True):
        problems.append("progressive study fails its own ladder")
    if not oracle.ladder_1d(rows["linear"], 3, "progressive", True):
        problems.append("linear orders pass the progressive ladder")
    if not oracle.ladder_1d(rows["classical"], 3, "progressive", True):
        problems.append("classical orders pass the progressive ladder")
    for line in problems:
        print(f"selfcheck: {line}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0



def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run the workload this many times (seeds --seed, --seed+1, ...) "
                         "in fresh processes and print medians and quartiles")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    _import_pweno()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    if args.repeat:
        return repeat(args.workload, args.repeat, args.seconds, bool(args.trace), args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
