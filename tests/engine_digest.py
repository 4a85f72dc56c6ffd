"""One SHA-256 over the engine's answers, to show that a change keeps them bit for bit.

    python3 tests/engine_digest.py

It prints the number of arrays hashed and one digest over them: the values,
cells and fallback flags of interpolate_batch, and the value, indicators,
flag and every NevilleState array of interpolate_nd, for n = 1..3,
r = 2..4, every method, data as drawn and scaled by 1e300 (where the
fallback fires), in calls of one point, a few points, the largest one-chunk
call (which works in the thread's buffers wherever weno._arena gives them)
and several chunks.
Run it on two trees and compare the lines. Digests compare only on one
machine: the indicator kernel's matmuls may round differently with another
BLAS build or CPU. pweno is imported from the src/ directory next to this
one.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pweno import smoothness, weno  # noqa: E402
from pweno.batch import interpolate_batch  # noqa: E402
from pweno.grid import GridFunction, TensorGrid, build_random_grid  # noqa: E402
from pweno.weno import WenoParams, interpolate_nd  # noqa: E402


def cases():
    """(gf, points, params) of every case, in a fixed order."""
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            rng = np.random.default_rng(10 * n + r)
            # axes of different lengths, so each has its own node offset
            axes = tuple(build_random_grid(0.0, 1.0, 2 * r + 2 + 2 * a, seed=100 * n + r + a)
                         for a in range(n))
            grid = TensorGrid(axes)
            values = rng.normal(size=grid.shape)
            chunk = max(smoothness._CHUNK_BYTES // (8 * (2 * r) ** n), weno._MIN_CHUNK)
            cols = []
            for ax in axes:
                i = rng.integers(r, ax.n_cells - r + 2, 2 * chunk + 5)
                cols.append(ax.nodes[i - 1] + rng.uniform(0.0, 1.0, i.size)
                            * (ax.nodes[i] - ax.nodes[i - 1]))
            pts = np.stack(cols, axis=1)
            for scale in (1.0, 1e300):
                gf = GridFunction(grid, values * scale)
                for method in weno.METHODS:
                    params = WenoParams(r=r, method=method)
                    for npts in (1, 7, chunk, pts.shape[0]):
                        yield gf, pts[:npts], params


def arrays():
    """Every array the digest covers, in a fixed order."""
    for gf, pts, params in cases():
        res = interpolate_batch(gf, pts, params)
        yield from (res.values, res.cells, res.fallback)
        for p in pts[:3]:
            one = interpolate_nd(gf, p, params, capture=params.method == "progressive")
            yield from (np.float64(one.value), np.array(one.cell.i), np.bool_(one.linear_fallback))
            if one.indicators is not None:
                yield one.indicators
            if one.neville is not None:
                for part in (one.neville.values, one.neville.weights):
                    yield from (part[level] for level in sorted(part))


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for a in arrays():
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
        count += 1
    print(f"{count} arrays, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
