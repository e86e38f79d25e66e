import pytest

import adelic_gaps
from adelic_gaps import adele, lattice, paper_examples, torus_gaps

PUBLIC_NAMES = {
    "AdelePoint",
    "DegenerateOrbitError",
    "ExampleInstance",
    "F_value",
    "G_N_value",
    "GapReport",
    "PrimeSet",
    "RotationMatrixSpec",
    "ScanResult",
    "TorusPoint",
    "add_diagonal",
    "default_instances",
    "delta_via_lattice",
    "gap_report",
    "is_prime",
    "min_positive_diagonal_distance",
    "orbit",
    "padic_abs",
    "reduce",
    "reproduce_all",
    "scan_G",
    "sharp_instance",
    "torus_distance",
    "valuation",
    "zero_point",
}


def test_all_names_resolve_once():
    names = adelic_gaps.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adelic_gaps, name), name


def test_public_names_are_pinned():
    assert set(adelic_gaps.__all__) == PUBLIC_NAMES
    # sharp_instance(P) picks the family from P; no per-family builder is left
    assert not [name for name in dir(adelic_gaps) if name.startswith("build_")]


def test_pointwise_arithmetic_lives_with_the_tests():
    # k * x, x + y and x - y as points are test helpers in `oracles`
    for name in ("add", "negate", "sub", "scale_by_integer"):
        assert not hasattr(adele, name), name


def test_runs_expand_only_in_the_tests():
    # a report and a scan hold their runs; the expanded lists are `oracles.expanded`
    assert not hasattr(torus_gaps.GapReport, "deltas")
    assert not hasattr(lattice.ScanResult, "interval_values")
    assert not hasattr(torus_gaps, "_expanded")


LAZY_NAMES = {
    lattice: ("F_value", "G_N_value", "RotationMatrixSpec", "ScanResult", "delta_via_lattice",
              "min_positive_diagonal_distance", "scan_G"),
    paper_examples: ("ExampleInstance", "default_instances", "reproduce_all", "sharp_instance"),
}


def test_names_loaded_on_first_use_are_their_modules_objects():
    for module, names in LAZY_NAMES.items():
        for name in names:
            assert getattr(adelic_gaps, name) is getattr(module, name), name


def test_dir_and_star_import_cover_all():
    assert set(adelic_gaps.__all__) <= set(dir(adelic_gaps))
    namespace = {}
    exec("from adelic_gaps import *", namespace)
    for name in adelic_gaps.__all__:
        assert namespace[name] is getattr(adelic_gaps, name), name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(adelic_gaps, "nosuch")
    with pytest.raises(AttributeError, match="nosuch"):
        adelic_gaps.nosuch
