"""Progressive WENO point-value interpolation on non-uniform tensor grids."""

from .batch import BatchResult, interpolate_batch
from .bench import (
    Bench1DConfig,
    Bench2DConfig,
    BenchConfigError,
    RefinementReport,
    ReportRow,
    run_refinement_1d,
    run_refinement_2d,
)
from .grid import (
    CellIndex,
    Grid1D,
    GridError,
    GridFunction,
    InsufficientStencilError,
    OutOfDomainError,
    TensorGrid,
    build_perturbed_grid,
    build_random_grid,
    build_uniform_grid,
    refine_dyadic,
)
from .testfunctions import TEST_FUNCTIONS, TestFunction, get_test_function
from .weno import (
    InterpResult,
    NevilleState,
    WenoError,
    WenoParams,
    interpolate_nd,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "Bench1DConfig",
    "Bench2DConfig",
    "BenchConfigError",
    "CellIndex",
    "Grid1D",
    "GridError",
    "GridFunction",
    "InsufficientStencilError",
    "InterpResult",
    "NevilleState",
    "OutOfDomainError",
    "RefinementReport",
    "ReportRow",
    "TEST_FUNCTIONS",
    "TensorGrid",
    "TestFunction",
    "WenoError",
    "WenoParams",
    "build_perturbed_grid",
    "build_random_grid",
    "build_uniform_grid",
    "get_test_function",
    "interpolate_batch",
    "interpolate_nd",
    "refine_dyadic",
    "run_refinement_1d",
    "run_refinement_2d",
]
