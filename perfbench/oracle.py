"""Checks on pweno's answers, computed apart from pweno.

Nothing here imports pweno: the sub-stencil interpolants are evaluated with
this module's own vectorized Neville recurrence, cells are located with a
plain searchsorted, and the targets and their derivative bounds are written
out from their formulas. The point checks return boolean masks over the
query points (True = passed) so that failures can be counted; the order
ladders return a list of the problems they found.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

FLOOR = 100 * np.finfo(np.float64).eps   # errors below this are roundoff
ROUND = 1e-10                            # relative roundoff allowance


# ---------------------------------------------------------------- targets
def f2(x):
    core = (x - 0.25) ** 3 * np.exp(x * x)
    return np.where(x < 2.0 / 3.0, 5.0 * core, 1.5 - core)


def f2_deriv_bound(order: int) -> float:
    """max over [0, 1] of |d^order/dx^order| of either f2 branch.

    d/dx (P e^{x^2}) = (P' + 2xP) e^{x^2}, so the derivative is an exact
    polynomial times e^{x^2}; its maximum is taken on a dense sample and
    padded by 10%.
    """
    P = np.polynomial.Polynomial([-0.25, 1.0]) ** 3
    x2 = np.polynomial.Polynomial([0.0, 2.0])
    for _ in range(order):
        P = P.deriv() + x2 * P
    x = np.linspace(0.0, 1.0, 100_001)
    return 1.1 * 5.0 * float(np.max(np.abs(P(x)) * np.exp(x * x)))


def f4(x1, x2):
    base = np.exp(x1 + x2) * np.cos(x1 - x2)
    return np.where(x1 + x2 > 0.0, base + 1.0, base)


def field3(x1, x2, x3):
    """Smooth 3-D field plus a unit jump across the plane x1 + x2 + x3 = 1.5."""
    smooth = np.sin(x1 + 2.0 * x2) + np.cos(2.0 * x1 - x3)
    return np.where(x1 + x2 + x3 > 1.5, smooth + 1.0, smooth)


# ---------------------------------------------------------------- geometry
def locate(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell i with x in (nodes[i-1], nodes[i]]; the left end belongs to cell 1."""
    i = np.searchsorted(nodes, x, side="left")
    return np.maximum(i, 1)


def windows(axes, cells: np.ndarray, r: int):
    """Per-point window nodes (list of (P, 2r)) and window indices."""
    offs = np.arange(-r, r)
    idx = [cells[:, a, None] + offs[None, :] for a in range(len(axes))]
    return [ax[i] for ax, i in zip(axes, idx)], idx


def window_values(values: np.ndarray, idx) -> np.ndarray:
    """Gather the (P, 2r, ..., 2r) data block of every point."""
    n = len(idx)
    sel = tuple(
        idx[a].reshape((idx[a].shape[0],) + (1,) * a + (-1,) + (1,) * (n - 1 - a))
        for a in range(n)
    )
    return values[sel]


def _neville_last(nodes: np.ndarray, block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Collapse the last axis of block (P, ..., m) by Neville at x (P,)."""
    m = nodes.shape[1]
    shape = (-1,) + (1,) * (block.ndim - 2)
    xs = x.reshape(shape)
    T = [block[..., j] for j in range(m)]
    for lev in range(1, m):
        for j in range(m - lev):
            a = nodes[:, j].reshape(shape)
            b = nodes[:, j + lev].reshape(shape)
            T[j] = ((xs - b) * T[j] - (xs - a) * T[j + 1]) / (a - b)
    return T[0]


def substencil_values(W, V: np.ndarray, X: np.ndarray, r: int) -> np.ndarray:
    """Every degree-r tensor sub-stencil interpolant at each point: (P, r**n)."""
    n = len(W)
    out = []
    for k in product(range(r), repeat=n):
        block = V[(slice(None),) + tuple(slice(kk, kk + r + 1) for kk in k)]
        for a in range(n - 1, -1, -1):
            block = _neville_last(W[a][:, k[a] : k[a] + r + 1], block, X[:, a])
        out.append(block)
    return np.stack(out, axis=1)


def _lebesgue_and_node_product(nodes: np.ndarray, x: np.ndarray):
    """Lebesgue function sum_j |l_j(x)| and prod_j |x - nodes_j|, per point."""
    m = nodes.shape[1]
    leb = np.zeros(x.shape)
    for j in range(m):
        lj = np.ones(x.shape)
        for k in range(m):
            if k != j:
                lj *= (x - nodes[:, k]) / (nodes[:, j] - nodes[:, k])
        leb += np.abs(lj)
    return leb, np.prod(np.abs(x[:, None] - nodes), axis=1)


def substencil_error_bound(W, X: np.ndarray, r: int, deriv_bound) -> np.ndarray:
    """Largest a-priori error bound over the r**n sub-stencil interpolants.

    For tensor interpolation f - I_1...I_n f = sum_a (prod_{b<a} I_b)(f - I_a f),
    so |error| <= sum_a (prod_{b<a} Lambda_b) M_a / (r+1)! prod |x_a - nodes|,
    with Lambda the Lebesgue function and M_a a bound on the (r+1)-th
    derivative along axis a over the window (deriv_bound(a) -> (P,) array).
    """
    n = len(W)
    fact = math.factorial(r + 1)
    best = np.zeros(X.shape[0])
    for k in product(range(r), repeat=n):
        total = np.zeros(X.shape[0])
        lam = np.ones(X.shape[0])
        for a in range(n):
            leb, prodx = _lebesgue_and_node_product(W[a][:, k[a] : k[a] + r + 1], X[:, a])
            total += lam * deriv_bound(a) / fact * prodx
            lam = lam * leb
        best = np.maximum(best, total)
    return best


# ---------------------------------------------------------------- point checks
def check_points(values, cells, fallback, X, axes, data, r, target, smooth_mask, deriv_bound):
    """Run every per-point check; returns {check name: pass mask}.

    target(X) is the analytic function; smooth_mask(W) marks points whose
    whole window lies on one side of the jump. "jump_range" (no overshoot of
    the window's data range) is a property of the 1-D scheme only: across a
    jump that cuts tensor cells diagonally every sub-stencil is contaminated
    and the scheme promises only the hull, so n-D callers report it apart.
    """
    expected_cells = np.stack([locate(ax, X[:, a]) for a, ax in enumerate(axes)], axis=1)
    ok_cells = np.all(cells == expected_cells, axis=1)
    W, idx = windows(axes, expected_cells, r)
    V = window_values(data, idx)
    flat = V.reshape(V.shape[0], -1)
    slack = ROUND * (1.0 + np.abs(flat).max(axis=1))
    sub = substencil_values(W, V, X, r)
    ok_hull = (values >= sub.min(axis=1) - slack) & (values <= sub.max(axis=1) + slack)
    smooth = smooth_mask(W)
    ok_range = smooth | ((values >= flat.min(axis=1) - slack) & (values <= flat.max(axis=1) + slack))
    bound = 2.0 * substencil_error_bound(W, X, r, lambda a: deriv_bound(a, W)) + slack
    ok_smooth = ~smooth | (np.abs(values - target(X)) <= bound)
    return {
        "finite": np.isfinite(values),
        "cells": ok_cells,
        "no_fallback": ~np.asarray(fallback, dtype=bool),
        "hull": ok_hull,
        "jump_range": ok_range,
        "smooth_error": ok_smooth,
    }


# ---------------------------------------------------------------- order ladder
def _readings(history):
    """(level, order) pairs whose two errors both sit above the roundoff floor."""
    out = []
    for (_, e0), (lv1, e1) in zip(history, history[1:]):
        if e0 >= FLOOR and e1 >= FLOOR:
            out.append((lv1, math.log2(e0 / e1)))
    return out


def ladder_1d(rows, r: int, method: str, uniform: bool) -> list[str]:
    """The paper's 1-D order ladder on a bench1d report.

    rows: (level, region, error). Region s is the cell offset from the jump
    cell, and each region is read at its finest pair of levels whose errors
    both sit above the roundoff floor. s = 0 keeps an O(1) error and does
    not converge. On a uniform grid: |s| >= r (window clear of the jump)
    reaches 2r; 1 <= |s| <= r-1 reaches r + |s| progressive, and between
    r + 1 and r + |s| classical. On a random grid the per-region readings
    scatter with the cell geometry at each level, so there every region
    off the jump must only have converged below 1e-6 at the finest level.
    """
    problems = []
    by_region: dict[int, list] = {}
    for level, region, err in rows:
        by_region.setdefault(int(region), []).append((level, err))
    for s in range(-4, 5):
        hist = sorted(by_region.get(s, []))
        if not hist or not all(math.isfinite(e) for _, e in hist):
            problems.append(f"s={s}: missing or non-finite errors")
            continue
        reads = _readings(hist)
        if s == 0:
            if hist[-1][1] < 0.1 or not reads or abs(reads[-1][1]) > 1.0:
                problems.append(f"s=0: jump cell converges ({hist[-1][1]:.2e})")
            continue
        if not uniform:
            if hist[-1][1] > 1e-6:
                problems.append(f"s={s}: finest error {hist[-1][1]:.2e} > 1e-6")
            continue
        if not reads:
            if abs(s) < r:
                problems.append(f"s={s}: every level at the roundoff floor")
            continue
        order = reads[-1][1]
        if abs(s) >= r:
            if order < 2 * r - 1.25:
                problems.append(f"s={s}: smooth order {order:.2f} < {2 * r - 1.25}")
        elif method == "progressive":
            if abs(order - (r + abs(s))) > 0.6:
                problems.append(f"s={s}: progressive order {order:.2f}, expected {r + abs(s)}")
        elif not r + 0.4 <= order <= r + abs(s) + 0.6:
            problems.append(f"s={s}: classical order {order:.2f} outside [{r + 0.4}, {r + abs(s) + 0.6}]")
    return problems


def ladder_2d(rows, r: int, method: str, uniform: bool, resolved: bool,
              jump: float) -> list[str]:
    """The 2-D band ladder on a bench2d region report (finest reading).

    Band sigma = s1 + s2 is the diagonal offset from the jump x1 + x2 = 0,
    with the bands of r = 3. On a uniform grid with a resolved target:
    sigma in {-1, 0} does not converge, the bands whose windows touch the
    jump reach r + 1, the next band r + 2 progressive and r + 1 classical,
    and the rest 2r - 0.3. A target the levels do not resolve (resolved
    False) must still converge outside the jump band, at order >= 2.5. On
    perturbed grids the cells do not line up with the diagonal, so only the
    error sizes are checked: the jump band keeps an error of at least half
    the jump, and no region's error exceeds 1.1 x the jump (no overshoot).
    """
    problems = []
    hist: dict[tuple, list] = {}
    for level, region, err in rows:
        s1, s2 = map(int, region.split(":"))
        hist.setdefault((s1, s2), []).append((level, err))
    if len(hist) != 99:
        problems.append(f"{len(hist)} regions, expected 99")
    jump_band = 0.0
    for (s1, s2), h in sorted(hist.items()):
        h.sort()
        sigma = s1 + s2
        if not all(math.isfinite(e) for _, e in h):
            problems.append(f"{s1}:{s2}: non-finite error")
            continue
        if sigma in (-1, 0):
            jump_band = max(jump_band, h[-1][1])
        if not uniform:
            if h[-1][1] > 1.1 * jump:
                problems.append(f"{s1}:{s2}: error {h[-1][1]:.3f} above 1.1 x jump")
            continue
        reads = _readings(h)
        if not reads:
            continue
        o = reads[-1][1]
        if sigma in (-1, 0):
            lo, hi = -0.3, 0.3
        elif not resolved:
            lo, hi = 2.5, math.inf
        elif sigma in (-4, -3, -2, 1, 2, 3):
            lo, hi = r + 0.6, r + 1.4
        elif sigma in (-5, 4):
            lo, hi = (r + 1.7, r + 2.5) if method == "progressive" else (r + 0.7, r + 1.4)
        else:
            lo, hi = 2 * r - 0.3, math.inf
        if not lo <= o <= hi:
            problems.append(f"{s1}:{s2}: order {o:.2f} outside [{lo}, {hi}]")
    if not uniform and jump_band < 0.5 * jump:
        problems.append(f"jump band error {jump_band:.3g} below half the jump")
    return problems
