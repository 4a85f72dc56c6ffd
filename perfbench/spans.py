"""Spans around pweno's public functions, installed from outside the package.

Each site is a name by which one module (or the benchmark) calls a function
of another. Installing a site swaps that name for a wrapper that records a
span (name, start, end, parent); uninstalling restores it. Nothing under
src/ changes. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> call sites (owner, attribute). The owner is a module, or a
# class for a classmethod.
ENGINE_SITES = {
    "batch.interp": [("pweno", "interpolate_batch"), ("pweno.bench", "interpolate_batch"),
                     ("pweno.cli", "interpolate_batch")],
    "weno.interp": [("pweno", "interpolate_nd")],
}
LAYER_SITES = {
    "cli.main": [("pweno.cli", "main")],
    "bench.study": [("pweno.cli", "run_refinement_1d"), ("pweno.cli", "run_refinement_2d")],
    "batch.interp": ENGINE_SITES["batch.interp"],
    "weno.interp": [("pweno", "interpolate_nd"), ("pweno.batch", "interpolate_nd")],
    "weno.nonlinear": [("pweno.weno", "nonlinear_pair")],
    "weights.pair": [("pweno.weno", "weight_pair_general"),
                     ("pweno.weights", "weight_pair_general")],
    "smoothness.table": [("pweno.weno", "build_table")],
    "smoothness.samples": [("pweno.batch", "axis_derivative_samples"),
                           ("pweno.smoothness", "axis_derivative_samples")],
    "smoothness.quadrature": [("pweno.smoothness", "cell_quadrature")],
    "stencil.eval": [("pweno.weno", "tensor_lagrange_eval")],
    "stencil.deriv": [("pweno.smoothness", "basis_derivative_matrix")],
    "grid.locate": [("pweno.batch", "locate_cells_1d"), ("pweno.bench", "locate_cells_1d"),
                    ("pweno.weno", "locate_cell")],
    "grid.build": [("pweno", "build_random_grid"), ("pweno", "build_perturbed_grid"),
                   ("pweno.bench", "build_uniform_grid"), ("pweno.bench", "build_random_grid"),
                   ("pweno.bench", "build_perturbed_grid"), ("pweno.bench", "refine_dyadic"),
                   ("pweno.grid.GridFunction", "from_callable")],
}
ENGINE = ("batch.interp", "weno.interp")


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        parent, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(parent), attr)


class Tracer:
    """Records spans in flat arrays: name id, start, end, parent index.

    Flat arrays keep the spans out of the garbage collector's reach, which
    would otherwise rescan every recorded span and slow the traced run.
    Engine spans (batch.interp, weno.interp) also keep (span index, grid
    function, r, cells) of each answer in `queries`, for the points answered
    and the distinct cells queried; the caller clears it once counted.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.nested = array("b")
        self.queries: list[tuple] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        kind, start, end, parent, nested = self.kind, self.start, self.end, self.parent, self.nested
        stack, active, clock, queries = self._stack, self._active, time.perf_counter, self.queries
        engine = name in ENGINE

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(active[name] > 0)
            end.append(0.0)
            stack.append(idx)
            active[name] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[name] -= 1
                stack.pop()
            if engine:
                params = args[2] if len(args) > 2 else kwargs["params"]
                cells = result.cells if hasattr(result, "cells") else [result.cell.i]
                queries.append((idx, args[0], params.r, cells))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, sites: dict):
        """Swap every existing site for a wrapper; restore them on exit.

        Sites whose attribute no longer exists are skipped, so the benchmark
        keeps running when a later version removes a function.
        """
        saved = []
        try:
            for name, where in sites.items():
                for owner_path, attr in where:
                    owner = _owner(owner_path)
                    raw = vars(owner).get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def mark(self) -> int:
        return len(self.kind)

    def _roots(self, lo: int, hi: int):
        return [i for i in range(lo, hi) if self.parent[i] < lo]

    def engine_work(self, lo: int, hi: int) -> tuple[float, int]:
        """Seconds inside top-level engine calls and points they answered."""
        engine = {self.name_id[n] for n in ENGINE if n in self.name_id}
        roots = {i for i in self._roots(lo, hi) if self.kind[i] in engine}
        busy = sum(self.end[i] - self.start[i] for i in roots)
        points = sum(len(q[3]) for q in self.queries if q[0] in roots)
        return busy, points

    def distinct_cell_rows(self, lo: int, hi: int) -> int:
        """Sum over grid functions of r x distinct (axis, cell) pairs queried."""
        seen = set()
        total = 0
        for idx, gf, r, cells in self.queries:
            if not lo <= idx < hi:
                continue
            for axis, col in enumerate(np.asarray(cells).T):
                for i in np.unique(col):
                    key = (id(gf), axis, int(i))
                    if key not in seen:
                        seen.add(key)
                        total += r
        return total

    def layer_stats(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Busy seconds, self seconds and calls per span name in spans lo..hi-1.

        Busy time counts a span only when no enclosing span has its name;
        self time is a span's duration minus its direct children's.
        """
        kind = np.frombuffer(self.kind, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        nested = np.frombuffer(self.nested, dtype=np.int8)[lo:hi].astype(bool)
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        out = {}
        for nid, name in enumerate(self.names):
            sel = kind == nid
            if sel.any():
                out[name] = {"busy": float(dur[sel & ~nested].sum()),
                             "self": float((dur[sel] - child[sel]).sum()),
                             "calls": int(sel.sum())}
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name,start,end,parent (parent -1 = root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.kind)):
                fh.write(f"{self.names[self.kind[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")
