"""Progressive WENO point-value interpolation on non-uniform tensor grids."""

from .batch import BatchResult, interpolate_batch
from .bench import (
    Bench1DConfig,
    Bench2DConfig,
    BenchConfigError,
    RefinementReport,
    ReportRow,
    emit_report,
    report_from_json,
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
    locate_cell,
    refine_dyadic,
)
from .smoothness import IndicatorParams, SmoothnessError, SmoothnessTable
from .testfunctions import TEST_FUNCTIONS, TestFunction, get_test_function
from .weno import (
    DiagnosticsNotCaptured,
    InterpResult,
    NevilleState,
    WenoError,
    WenoParams,
    capture_diagnostics,
    interpolate_1d,
    interpolate_nd,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "Bench1DConfig",
    "Bench2DConfig",
    "BenchConfigError",
    "CellIndex",
    "DiagnosticsNotCaptured",
    "Grid1D",
    "GridError",
    "GridFunction",
    "IndicatorParams",
    "InsufficientStencilError",
    "InterpResult",
    "NevilleState",
    "OutOfDomainError",
    "RefinementReport",
    "ReportRow",
    "SmoothnessError",
    "SmoothnessTable",
    "TEST_FUNCTIONS",
    "TensorGrid",
    "TestFunction",
    "WenoError",
    "WenoParams",
    "build_perturbed_grid",
    "build_random_grid",
    "build_uniform_grid",
    "capture_diagnostics",
    "emit_report",
    "get_test_function",
    "interpolate_1d",
    "interpolate_batch",
    "interpolate_nd",
    "locate_cell",
    "refine_dyadic",
    "report_from_json",
    "run_refinement_1d",
    "run_refinement_2d",
]
