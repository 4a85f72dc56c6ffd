"""Acceptance gate: the ten headline behaviors at their stated tolerances.

Each test prints one PASS/FAIL line; error-floor levels (max error under
100 ulp of 1.0) are excluded from order readings because log2 ratios of
roundoff-dominated errors carry no information.
"""
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from pweno.batch import interpolate_batch
from pweno.bench import (
    Bench1DConfig,
    Bench2DConfig,
    run_refinement_1d,
    run_refinement_2d,
)
from pweno.cli import main
from pweno import smoothness
from pweno.grid import (
    GridFunction,
    TensorGrid,
    build_random_grid,
    build_uniform_grid,
)
from pweno.smoothness import gauss_rule, indicator_tables
from pweno.testfunctions import get_test_function
from pweno.weno import WenoParams, interpolate_nd
from reference import override_indicators, sub_stencil_values_1d

FLOOR = 100 * np.finfo(np.float64).eps


def announce(num: int, desc: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num}: {desc}")
    assert not failures, f"criterion {num}: {failures}"


def region_history(report, region):
    """(error, order) pairs for one region, coarsest level first."""
    return [(row.error, row.order) for row in report.rows if row.region == region]


def last_reliable(*histories):
    """Finest level index whose error and its predecessor sit above the floor
    in every given history; None when no level qualifies."""
    n = len(histories[0])
    for idx in range(n - 1, 0, -1):
        if all(h[idx][0] >= FLOOR and h[idx - 1][0] >= FLOOR for h in histories):
            return idx
    return None


def run_1d(function, r, method, grid="uniform", seed=0):
    cfg = Bench1DConfig(function, r=r, method=method, grid=grid, seed=seed,
                        level_min=5, level_max=9, eval_points=2000)
    return run_refinement_1d(cfg)


def test_criterion_01_polynomial_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    failures = []
    for case in range(200):
        ndim = 1 + case % 2
        r = 2 + (case // 2) % 3
        J = 24 if ndim == 1 else 12
        axes = tuple(build_random_grid(-1.0, 1.0, J, seed=31 * case + a)
                     for a in range(ndim))
        if ndim == 1:
            coeffs = rng.uniform(-1.0, 1.0, size=r + 1)
            values = P.polyval(axes[0].nodes, coeffs)
        else:
            coeffs = rng.uniform(-1.0, 1.0, size=(r + 1, r + 1))
            X1, X2 = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
            values = P.polyval2d(X1, X2, coeffs)
        gf = GridFunction(TensorGrid(axes), values)
        point = []
        for ax in axes:
            i = int(rng.integers(r, ax.n_cells - r + 2))
            point.append(rng.uniform(ax.nodes[i - 1], ax.nodes[i]))
        truth = float(P.polyval(point[0], coeffs) if ndim == 1
                      else P.polyval2d(point[0], point[1], coeffs))
        for method in ("progressive", "classical"):
            got = interpolate_nd(gf, point, WenoParams(r=r, method=method)).value
            rel = abs(got - truth) / max(1.0, abs(truth))
            if rel > 1e-12:
                failures.append(f"case {case} {method} n={ndim} r={r} rel={rel:.2e}")
    elapsed = time.time() - t0
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    announce(1, "degree<=r polynomials reproduced on 200 random grids", failures)


def test_criterion_02_linear_limit():
    t0 = time.time()
    rng = np.random.default_rng(77)
    failures = []
    for case in range(100):
        ndim = 1 + case % 2
        r = 2 + (case // 2) % 3
        J = 20 if ndim == 1 else 12
        axes = tuple(build_random_grid(0.0, 1.0, J, seed=17 * case + 3 * a + 1)
                     for a in range(ndim))
        values = rng.standard_normal([J + 1] * ndim)
        gf = GridFunction(TensorGrid(axes), values)
        point = []
        for ax in axes:
            i = int(rng.integers(r, ax.n_cells - r + 2))
            point.append(rng.uniform(ax.nodes[i - 1], ax.nodes[i]))
        params = WenoParams(r=r, method="progressive")
        with override_indicators(0.37):
            got = interpolate_nd(gf, point, params).value
        full = interpolate_nd(gf, point, WenoParams(r=r, method="linear")).value
        rel = abs(got - full) / max(1.0, abs(full))
        if rel > 1e-12:
            failures.append(f"case {case} n={ndim} r={r} rel={rel:.2e}")
    elapsed = time.time() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s > 10s")
    announce(2, "equal indicators reduce to the full 2r-point interpolant", failures)


def test_criterion_03_smooth_2d_orders():
    t0 = time.time()
    failures = []
    for r, lo, hi in ((3, 5.7, 6.3), (4, 7.4, 8.6)):
        cfg = Bench2DConfig("f3", r=r, method="progressive", grid="uniform",
                            level_min=4, level_max=7, eval_points=3)
        rep = run_refinement_2d(cfg)
        final = rep.rows[-1].order
        if not (lo <= final <= hi):
            failures.append(f"r={r} final order {final:.3f} outside [{lo},{hi}]")
    elapsed = time.time() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s > 300s")
    announce(3, "smooth 2-D refinement reaches order 2r", failures)


def test_criterion_04_jump_orders_r3_uniform():
    t0 = time.time()
    failures = []
    prog = run_1d("f1", 3, "progressive")
    clas = run_1d("f1", 3, "classical")
    po = region_history(prog, "-2")[-1][1]
    co = region_history(clas, "-2")[-1][1]
    if not 4.6 <= po <= 5.3:
        failures.append(f"progressive o_-2={po:.3f} outside [4.6,5.3]")
    if not 3.7 <= co <= 4.3:
        failures.append(f"classical o_-2={co:.3f} outside [3.7,4.3]")
    for s in ("-2", "2"):
        d = region_history(prog, s)[-1][1] - region_history(clas, s)[-1][1]
        if d < 0.6:
            failures.append(f"progressive gain at s={s} is {d:.3f} < 0.6")
    elapsed = time.time() - t0
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    announce(4, "1-D jump study r=3: progressive gains a full order", failures)


def test_criterion_05_jump_orders_r4_uniform():
    failures = []
    prog = run_1d("f1", 4, "progressive")
    clas = run_1d("f1", 4, "classical")
    for rep, region, lo, hi in ((prog, "-1", 4.6, 5.3), (prog, "-2", 5.7, 6.6),
                                (clas, "-2", 4.6, 5.3)):
        hist = region_history(rep, region)
        idx = last_reliable(hist)
        if idx is None:
            failures.append(f"{rep.method} s={region}: all levels at the floor")
            continue
        o = hist[idx][1]
        if not (lo <= o <= hi):
            failures.append(f"{rep.method} s={region} order {o:.3f} outside [{lo},{hi}]")
    announce(5, "1-D jump study r=4 before the error floor", failures)


def test_criterion_06_random_grid_gains():
    failures = []
    for function, seed in (("f1", 14), ("f2", 4)):
        prog = run_1d(function, 3, "progressive", grid="random", seed=seed)
        clas = run_1d(function, 3, "classical", grid="random", seed=seed)
        for s in ("-2", "2"):
            hp = region_history(prog, s)
            hc = region_history(clas, s)
            idx = last_reliable(hp, hc)
            if idx is None:
                failures.append(f"{function} s={s}: all levels at the floor")
                continue
            d = hp[idx][1] - hc[idx][1]
            if d < 0.6:
                failures.append(f"{function} s={s} gain {d:.3f} < 0.6")
        for s in ("-4", "-3", "3", "4"):
            hp = region_history(prog, s)
            if hp[-1][0] >= FLOOR and hp[-2][0] >= FLOOR:
                o = hp[-1][1]
                if o < 2 * 3 - 0.7:
                    failures.append(f"{function} smooth s={s} order {o:.3f} < 5.3")
    announce(6, "random-grid jump studies keep the progressive gain", failures)


def test_criterion_07_discontinuity_bands_2d():
    t0 = time.time()
    failures = []
    reports = {}
    for method in ("progressive", "classical"):
        cfg = Bench2DConfig("f4", r=3, method=method, grid="uniform",
                            level_min=6, level_max=7, eval_points=3)
        reports[method] = run_refinement_2d(cfg)
    for method, rep in reports.items():
        for row in rep.rows:
            if row.order is None:
                continue
            s1, s2 = map(int, row.region.split(":"))
            sigma = s1 + s2
            o = row.order
            if sigma in (-1, 0):
                lo, hi, band = -0.3, 0.3, "contaminated"
            elif sigma in (-4, -3, -2, 1, 2, 3):
                lo, hi, band = 3.6, 4.4, "first"
            elif sigma in (-5, 4):
                if method == "progressive":
                    lo, hi, band = 4.7, 5.5, "second"
                else:
                    lo, hi, band = 3.7, 4.4, "second"
            else:
                lo, hi, band = 5.7, np.inf, "smooth"
            if not (lo <= o <= hi):
                failures.append(f"{method} {band} region {row.region} "
                                f"order {o:.3f} outside [{lo},{hi}]")
    elapsed = time.time() - t0
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.1f}s > 600s")
    announce(7, "2-D diagonal-jump bands match the expected ladder", failures)


def test_criterion_08_indicator_properties(monkeypatch):
    t0 = time.time()
    failures = []

    def table_series(fn, r, sizes):
        out = []
        for J in sizes:
            g = build_uniform_grid(0.0, 1.0, J)
            gf = GridFunction.from_callable(TensorGrid((g,)), fn)
            out.append(indicator_tables(gf, np.array([[J // 2]]), r)[0])
        return np.array(out)

    for r in (2, 3, 4):
        smooth = table_series(lambda x: np.sin(2 * x + 0.3) + x**2, r,
                              (32, 64, 128, 256, 512))
        ratios = smooth[:-1] / smooth[1:]
        if not ((ratios[-3:] >= 3.0) & (ratios[-3:] <= 5.0)).all():
            failures.append(f"P1 r={r} ratios {np.round(ratios[-3:], 3)}")

        entries = table_series(lambda x: np.sin(4 * x + 0.4), r, (32, 64, 128, 256))
        rel = np.abs(np.diff(entries, axis=1)) / entries.mean(axis=1)[:, None]
        trusted = [i for i in range(len(rel) - 1)
                   if rel[i].min() >= 1e-8 and rel[i + 1].min() >= 1e-8]
        if not trusted:
            failures.append(f"P2 r={r}: no transition above roundoff")
        else:
            gap_ratios = rel[trusted[-1]] / rel[trusted[-1] + 1]
            target = 2.0 ** (r + 1)
            if not ((gap_ratios >= 0.7 * target) & (gap_ratios <= 1.4 * target)).all():
                failures.append(f"P2 r={r} ratios {np.round(gap_ratios, 2)} "
                                f"outside [0.7,1.4]x{target}")

        step_vals = []
        for J in (32, 64, 128, 256, 512):
            g = build_uniform_grid(0.0, 1.0, J)
            gf = GridFunction.from_callable(
                TensorGrid((g,)), lambda x: (x >= 0.5 - 1e-12).astype(float))
            step_vals.append(indicator_tables(gf, np.array([[J // 2]]), r)[0, 0])
        if step_vals[-1] < 0.5 * step_vals[0]:
            failures.append(f"P3 r={r} decayed: {step_vals[0]:.3g} -> "
                            f"{step_vals[-1]:.3g}")

        g = build_random_grid(0.0, 1.0, 16, seed=5 + r)
        gf = GridFunction.from_callable(TensorGrid((g,)),
                                        lambda x: np.sin(3 * x) + x**3)
        base = indicator_tables(gf, np.array([[8]]), r)[0, 1]
        with monkeypatch.context() as patch:   # the rule of 2(r+1) points
            patch.setattr(smoothness, "gauss_rule", lambda q: gauss_rule(2 * q))
            # a new grid function: gf would answer from its indicator memo
            fine = indicator_tables(GridFunction(gf.grid, gf.values), np.array([[8]]), r)[0, 1]
        if abs(fine - base) > 1e-12 * abs(base):
            failures.append(f"quadrature doubling r={r} moved the value")
    elapsed = time.time() - t0
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    announce(8, "indicator scaling, agreement, and no-decay properties", failures)


def test_criterion_09_non_oscillation():
    failures = []
    rng = np.random.default_rng(7)
    for function in ("f1", "f2"):
        tf = get_test_function(function)
        a, b = tf.domain[0]
        g = build_uniform_grid(a, b, 2**7)
        gf = GridFunction.from_callable(TensorGrid((g,)), tf.fn)
        delta = 1e-9
        jump = abs(float(tf.fn(tf.jump_x + delta)) - float(tf.fn(tf.jump_x - delta)))
        j0 = int(np.searchsorted(g.nodes, tf.jump_x))
        for r in (2, 3, 4):
            pts = rng.uniform(g.nodes[r - 1], g.nodes[g.n_cells - r + 1], 10000)
            res = interpolate_batch(gf, pts, WenoParams(r=r, method="progressive"))
            scale = max(1.0, np.abs(res.values).max())
            base = sub_stencil_values_1d(g.nodes, gf.values, pts, r)
            hull = np.maximum(base.min(axis=1) - res.values,
                              res.values - base.max(axis=1)).max()
            if hull > 1e-12 * scale:
                failures.append(f"{function} r={r} hull violation {hull:.2e}")
            # Gibbs check: queries whose window straddles the jump must stay
            # within that window's own data range
            cells = res.cells[:, 0]
            near = np.abs(cells - j0) <= r - 1
            idx = cells[near, None] + np.arange(-r, r)[None, :]
            wdata = gf.values[idx]
            over = np.maximum(res.values[near] - wdata.max(axis=1),
                              wdata.min(axis=1) - res.values[near]).max()
            if over > 1e-6 * jump:
                failures.append(f"{function} r={r} overshoot {over:.2e} "
                                f"> 1e-6*jump")
    announce(9, "step interpolants stay inside the data hull", failures)


def test_criterion_10_deterministic_reports(tmp_path):
    failures = []
    runs = (
        ["bench1d", "--function", "f1", "--grid", "random", "--seed", "14",
         "--levels", "5..7", "--eval-points", "900"],
        ["bench2d", "--function", "f4", "--r", "2", "--grid", "perturbed",
         "--seed", "3", "--levels", "5..6", "--eval-points", "1"],
    )
    for idx, args in enumerate(runs):
        p1 = tmp_path / f"run{idx}_a.csv"
        p2 = tmp_path / f"run{idx}_b.csv"
        if main(args + ["--out", str(p1)]) != 0 or main(args + ["--out", str(p2)]) != 0:
            failures.append(f"{args[0]} exited non-zero")
            continue
        if p1.read_bytes() != p2.read_bytes():
            failures.append(f"{args[0]} reports differ between runs")
    announce(10, "fixed-seed benchmark reports are byte-identical", failures)
