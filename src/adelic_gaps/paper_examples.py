"""Sharpness families achieving exactly three gaps, with their published values.

Two finite-prime-set instances (F1, F2) and the general finite family (F3),
plus four cofinite families (I1-I4) covering every possible infinite prime
set by its smallest members.  Expected values are either transcribed
literally (F1, F2, I1-I3) or generated from the closed-form expressions
(F3, I4); `reproduce_all` checks both against the gap engine bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import prod

from .adele import AdelePoint, PrimeSet
from .torus_gaps import gap_report


@dataclass(frozen=True)
class ExampleInstance:
    label: str
    primes: PrimeSet
    alpha: AdelePoint
    N: int
    expected: tuple[tuple[int, Fraction], ...]  # (orbit index n, expected delta)


def build_F1() -> ExampleInstance:
    primes = PrimeSet.of(2)
    alpha = AdelePoint(Fraction(351, 100), 0, {2: 1}, primes)
    expected = ((1, Fraction(1, 100)), (2, Fraction(3, 20)), (18, Fraction(4, 25)))
    return ExampleInstance("F1", primes, alpha, 52, expected)


def build_F2() -> ExampleInstance:
    primes = PrimeSet.of(3)
    alpha = AdelePoint(Fraction(16, 5), 0, {3: 1}, primes)
    expected = ((1, Fraction(1, 5)), (2, Fraction(3, 5)), (3, Fraction(4, 5)))
    return ExampleInstance("F2", primes, alpha, 5, expected)


def build_F3(primes: PrimeSet) -> ExampleInstance:
    """Finite family: N = p1...pk + 1, alpha = (1/(4 p1...pk), -1, ..., -1).

    Requires p1...pk >= 5; below that N is too small for the construction.
    """
    if not primes.finite:
        raise ValueError("F3 requires a finite prime set")
    product = prod(primes.listed)
    if product < 5:
        raise ValueError(f"F3 requires the product of the primes to be >= 5, got {product}")
    alpha = AdelePoint(Fraction(1, 4 * product), -1, {}, primes)
    p1 = primes.listed[0]
    expected = (
        (1, max(Fraction(1, 4), Fraction(1, p1))),
        (2, Fraction(3, 4) + Fraction(1, 4 * product)),
        (3, Fraction(1)),
    )
    label = "F3[" + ",".join(str(p) for p in primes.listed) + "]"
    return ExampleInstance(label, primes, alpha, product + 1, expected)


def _check_cofinite(primes: PrimeSet, label: str) -> None:
    if primes.finite:
        raise ValueError(f"{label} requires an infinite (cofinite) prime set")


def build_I1(five_in_set: bool = True, primes: PrimeSet | None = None) -> ExampleInstance:
    """Smallest prime 3: alpha_inf = 1/9, alpha_3 = 1, N = 11.

    In the 5-outside variant the published first gap 1/9 also needs 7 outside
    the set: with 7 present, the shift by 1 leaves a unit 7-coordinate whose
    weighted norm 1/7 dominates 1/9, and the true first gap is 1/7 (confirmed
    against the brute-force oracle).  The builder enforces the stronger
    hypothesis so the pinned value is honest.
    """
    if primes is None:
        primes = PrimeSet.all_except(2) if five_in_set else PrimeSet.all_except(2, 5, 7)
    _check_cofinite(primes, "I1")
    if primes.smallest() != 3:
        raise ValueError(f"I1 requires smallest prime 3, got {primes.smallest()}")
    if (5 in primes) != five_in_set:
        raise ValueError("I1 prime set disagrees with the requested 5-membership variant")
    if not five_in_set and 7 in primes:
        raise ValueError("I1 with 5 outside the set also requires 7 outside the set")
    alpha = AdelePoint(Fraction(1, 9), 0, {3: 1}, primes)
    delta1 = Fraction(1, 5) if five_in_set else Fraction(1, 9)
    expected = ((1, delta1), (2, Fraction(2, 9)), (5, Fraction(1, 3)))
    label = "I1[5 in P]" if five_in_set else "I1[5 not in P]"
    return ExampleInstance(label, primes, alpha, 11, expected)


def build_I2(primes: PrimeSet | None = None) -> ExampleInstance:
    """Contains 2 and 3: alpha_inf = 27/50, alpha_2 = -1, N = 6."""
    if primes is None:
        primes = PrimeSet.all_primes()
    _check_cofinite(primes, "I2")
    if 2 not in primes or 3 not in primes:
        raise ValueError("I2 requires both 2 and 3 in the prime set")
    alpha = AdelePoint(Fraction(27, 50), 0, {2: -1}, primes)
    expected = ((1, Fraction(3, 10)), (2, Fraction(1, 3)), (3, Fraction(23, 50)))
    return ExampleInstance("I2", primes, alpha, 6, expected)


def build_I3(five_in_set: bool = True, primes: PrimeSet | None = None) -> ExampleInstance:
    """Contains 2 but not 3: alpha_inf = 8/49, alpha_2 = -1 (alpha_5 = 3 if 5 in P), N = 8."""
    if primes is None:
        primes = PrimeSet.all_except(3) if five_in_set else PrimeSet.all_except(3, 5)
    _check_cofinite(primes, "I3")
    if 2 not in primes:
        raise ValueError("I3 requires 2 in the prime set")
    if 3 in primes:
        raise ValueError("I3 requires 3 outside the prime set")
    if (5 in primes) != five_in_set:
        raise ValueError("I3 prime set disagrees with the requested 5-membership variant")
    overrides = {2: Fraction(-1)}
    if five_in_set:
        overrides[5] = Fraction(3)  # needed for the first gap value
    alpha = AdelePoint(Fraction(8, 49), 0, overrides, primes)
    expected = ((1, Fraction(1, 7)), (2, Fraction(1, 4)), (4, Fraction(16, 49)))
    label = "I3[5 in P]" if five_in_set else "I3[5 not in P]"
    return ExampleInstance(label, primes, alpha, 8, expected)


def build_I4(q: int, primes: PrimeSet | None = None) -> ExampleInstance:
    """Smallest prime q >= 5: alpha_inf = (q-1)/(q(q-2)), alpha_q = -1, N = q."""
    if primes is None:
        below = takewhile(lambda p: p < q, PrimeSet.all_primes().members())
        primes = PrimeSet.all_except(*below)
    _check_cofinite(primes, "I4")
    if primes.smallest() != q or q < 5:
        raise ValueError(f"I4 requires smallest prime q >= 5, got smallest {primes.smallest()}")
    alpha = AdelePoint(Fraction(q - 1, q * (q - 2)), 0, {q: -1}, primes)
    runner_up = primes.smallest_outside({q})
    expected = (
        (1, max(Fraction(1, q * (q - 2)), Fraction(1, runner_up))),
        (2, Fraction(1, q)),
        (3, Fraction(1, q) + Fraction(1, q * (q - 2))),
    )
    return ExampleInstance(f"I4[q={q}]", primes, alpha, q, expected)


def default_instances() -> list[ExampleInstance]:
    """Every published instance, including both 5-membership variants of I1/I3."""
    instances = [build_F1(), build_F2()]
    for listed in ((5,), (7,), (2, 3), (2, 5), (3, 5)):
        instances.append(build_F3(PrimeSet.of(*listed)))
    instances += [
        build_I1(five_in_set=True),
        build_I1(five_in_set=False),
        build_I2(),
        build_I3(five_in_set=True),
        build_I3(five_in_set=False),
        build_I4(5),
        build_I4(7),
    ]
    return instances


@dataclass(frozen=True)
class ReproductionRow:
    label: str
    quantity: str  # "delta_<n>" or "g_N"
    expected: str
    computed: str
    ok: bool


@dataclass(frozen=True)
class ReproductionTable:
    rows: tuple[ReproductionRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)


def reproduce_instance(instance: ExampleInstance) -> list[ReproductionRow]:
    report = gap_report(instance.alpha, instance.N)
    rows = []
    for n, expected in instance.expected:
        computed = report.deltas[n - 1]
        rows.append(
            ReproductionRow(
                instance.label, f"delta_{n}", str(expected), str(computed), computed == expected
            )
        )
    # every published family is sharp: exactly three gaps
    rows.append(
        ReproductionRow(instance.label, "g_N", "3", str(report.gap_count), report.gap_count == 3)
    )
    return rows


def reproduce_all(instances: list[ExampleInstance] | None = None) -> ReproductionTable:
    """Run the gap engine on every instance and compare each published value exactly."""
    if instances is None:
        instances = default_instances()
    rows: list[ReproductionRow] = []
    for instance in instances:
        rows.extend(reproduce_instance(instance))
    return ReproductionTable(tuple(rows))
