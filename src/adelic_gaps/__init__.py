"""Exact nearest-neighbor gap statistics for rotation orbits on adelic tori."""

from .adele import (
    AdelePoint,
    PrimeSet,
    TorusPoint,
    add_diagonal,
    reduce,
    torus_distance,
    zero_point,
)
from .arith import is_prime, padic_abs, valuation
from .lattice import (
    RotationMatrixSpec,
    ScanResult,
    G_N_value,
    delta_via_lattice,
    F_value,
    min_positive_diagonal_distance,
    scan_G,
)
from .paper_examples import (
    ExampleInstance,
    default_instances,
    reproduce_all,
    sharp_instance,
)
from .torus_gaps import (
    DegenerateOrbitError,
    GapReport,
    gap_report,
    orbit,
)

__all__ = [
    "AdelePoint",
    "PrimeSet",
    "TorusPoint",
    "add_diagonal",
    "default_instances",
    "delta_via_lattice",
    "DegenerateOrbitError",
    "ExampleInstance",
    "F_value",
    "G_N_value",
    "gap_report",
    "GapReport",
    "is_prime",
    "min_positive_diagonal_distance",
    "orbit",
    "padic_abs",
    "reduce",
    "reproduce_all",
    "RotationMatrixSpec",
    "scan_G",
    "ScanResult",
    "sharp_instance",
    "torus_distance",
    "valuation",
    "zero_point",
]
