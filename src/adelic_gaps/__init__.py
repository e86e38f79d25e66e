"""Exact nearest-neighbor gap statistics for rotation orbits on adelic tori.

Importing the package loads `arith`, `adele` and `torus_gaps`; a name of
`lattice` or `paper_examples` loads its module when it is first read.
"""

from importlib import import_module

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
from .torus_gaps import (
    DegenerateOrbitError,
    GapReport,
    gap_report,
    orbit,
)

#: Each public name that loads on first use -> the module that defines it.
_LAZY = {
    **dict.fromkeys(("RotationMatrixSpec", "ScanResult", "G_N_value", "delta_via_lattice",
                     "F_value", "min_positive_diagonal_distance", "scan_G"), "lattice"),
    **dict.fromkeys(("ExampleInstance", "default_instances", "reproduce_all",
                     "sharp_instance"), "paper_examples"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


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
