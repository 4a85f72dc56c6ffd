"""Benchmark test functions: piecewise-smooth 1-D and 2-D targets.

Branch conventions are part of each definition (strict/non-strict inequalities
decide which side owns the interface), so the jump abscissa itself evaluates
deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_PI6 = np.pi / 6.0

# ascending coefficients of the two f1 branches
_F1_LO = np.array([0.0, 3.0, 5.0, 1.0, 1.0, 1.0, 1.0, -4.0, 1.0, -1.0, 1.0])
_F1_HI = np.array([1.0, -0.5, 5.0, 3.0, 2.0, -1.0, 2.0, 8.0, -3.0, 2.0, -1.0])


def _f1(x):
    x = np.asarray(x, dtype=np.float64)
    lo = np.polynomial.polynomial.polyval(x, _F1_LO)
    hi = np.polynomial.polynomial.polyval(x, _F1_HI)
    return np.where(x < 0.0, lo, hi)


def _f2(x):
    x = np.asarray(x, dtype=np.float64)
    core = (x - 0.25) ** 3 * np.exp(x**2)
    return np.where(x < 2.0 / 3.0, 5.0 * core, 1.5 - core)


def _f3(x1, x2):
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return 1.0 / (x1**2 + x2**2 + 1.0)


def _f4(x1, x2):
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    base = np.exp(x1 + x2) * np.cos(x1 - x2)
    return np.where(x1 + x2 > 0.0, base + 1.0, base)


def _f5(x1, x2):
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    base = (x1 + x2) / 16.0 * np.sin(16.0 * np.pi * x1) * np.sin(16.0 * np.pi * x2)
    return np.where(x1 + x2 > 0.0, base + 0.1, base)


@dataclass(frozen=True)
class TestFunction:
    """A named target with its domain and discontinuity descriptor.

    ``fn`` takes one array argument per axis and evaluates elementwise.
    ``jump_x`` is the 1-D jump abscissa (None when not applicable);
    ``discontinuous`` marks 2-D targets with a jump along x1 + x2 = 0.
    """

    name: str
    ndim: int
    domain: tuple[tuple[float, float], ...]
    fn: Callable[..., np.ndarray]
    jump_x: float | None = None
    discontinuous: bool = False


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "f1": TestFunction("f1", 1, ((-_PI6, 1.0 - _PI6),), _f1,
                       jump_x=0.0, discontinuous=True),
    "f2": TestFunction("f2", 1, ((0.0, 1.0),), _f2,
                       jump_x=2.0 / 3.0, discontinuous=True),
    "f3": TestFunction("f3", 2, ((-1.0, 1.0), (-1.0, 1.0)), _f3),
    "f4": TestFunction("f4", 2, ((-1.0, 1.0), (-1.0, 1.0)), _f4,
                       discontinuous=True),
    "f5": TestFunction("f5", 2, ((-1.0, 1.0), (-1.0, 1.0)), _f5,
                       discontinuous=True),
}


def get_test_function(name: str) -> TestFunction:
    try:
        return TEST_FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown test function {name!r}") from None
