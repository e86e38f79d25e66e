"""Sharpness instances achieving exactly three gaps, with their published values.

`sharp_instance(P)` picks the family from P's smallest members.  A finite P
gets F1 when P = {2}, F2 when P = {3} and the product family F3 otherwise.  A
cofinite P gets I2 when 2 and 3 are in P, I3 when only 2 is, I1 when only 3
is and I4 (with q the smallest prime of P) when neither is.  These cases
partition the prime sets, so every P has an instance.  Expected values are
transcribed from the paper (F1, F2, I2, I3) or come from closed forms in P
(F3, I1, I4).  `reproduce_all` checks the 14 published sets against the gap
engine bit-exactly; the tests check every pinned value and g_N = 3 on every
finite P within {2, 3, 5, 7, 11} and every cofinite P whose exclusions lie
within {2, 3, 5, 7, 11, 13}, and every delta_n against the pairwise distance
matrix where N <= 60.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod

from .adele import AdelePoint, PrimeSet
from .torus_gaps import gap_report


@dataclass(frozen=True)
class ExampleInstance:
    label: str
    alpha: AdelePoint
    N: int
    expected: tuple[tuple[int, Fraction], ...]  # (orbit index n, expected delta)


def sharp_instance(primes: PrimeSet) -> ExampleInstance:
    """The published instance on P with exactly three gaps.

    F3 has N = p1...pk + 1 and alpha = (1/(4 p1...pk), -1, ..., -1).  I1's
    first gap is max(1/9, 1/r), with r the smallest prime of P other than 3:
    the shift by 1 leaves a unit r-coordinate of weighted norm 1/r.  So the
    published delta_1 = 1/9 for 5 outside P needs 7 outside P as well; with
    7 in P it is 1/7.  I4's first gap is max(1/(q(q-2)), 1/r), with r the
    smallest prime of P other than q.
    """
    if primes.finite:
        if primes.listed == (2,):
            alpha = AdelePoint(Fraction(351, 100), 0, {2: 1}, primes)
            expected = ((1, Fraction(1, 100)), (2, Fraction(3, 20)), (18, Fraction(4, 25)))
            return ExampleInstance("F1", alpha, 52, expected)
        if primes.listed == (3,):
            alpha = AdelePoint(Fraction(16, 5), 0, {3: 1}, primes)
            expected = ((1, Fraction(1, 5)), (2, Fraction(3, 5)), (3, Fraction(4, 5)))
            return ExampleInstance("F2", alpha, 5, expected)
        product = prod(primes.listed)
        alpha = AdelePoint(Fraction(1, 4 * product), -1, {}, primes)
        expected = (
            (1, max(Fraction(1, 4), Fraction(1, primes.smallest()))),
            (2, Fraction(3, 4) + Fraction(1, 4 * product)),
            (3, Fraction(1)),
        )
        return ExampleInstance(f"F3[{primes}]", alpha, product + 1, expected)
    five = "5 in P" if 5 in primes else "5 not in P"
    if 2 in primes and 3 in primes:
        alpha = AdelePoint(Fraction(27, 50), 0, {2: -1}, primes)
        expected = ((1, Fraction(3, 10)), (2, Fraction(1, 3)), (3, Fraction(23, 50)))
        return ExampleInstance("I2", alpha, 6, expected)
    if 2 in primes:
        overrides = {2: -1, 5: 3} if 5 in primes else {2: -1}  # alpha_5 sets the first gap
        alpha = AdelePoint(Fraction(8, 49), 0, overrides, primes)
        expected = ((1, Fraction(1, 7)), (2, Fraction(1, 4)), (4, Fraction(16, 49)))
        return ExampleInstance(f"I3[{five}]", alpha, 8, expected)
    if 3 in primes:
        alpha = AdelePoint(Fraction(1, 9), 0, {3: 1}, primes)
        delta1 = max(Fraction(1, 9), Fraction(1, primes.smallest_outside({3})))
        expected = ((1, delta1), (2, Fraction(2, 9)), (5, Fraction(1, 3)))
        return ExampleInstance(f"I1[{five}]", alpha, 11, expected)
    q = primes.smallest()
    alpha = AdelePoint(Fraction(q - 1, q * (q - 2)), 0, {q: -1}, primes)
    expected = (
        (1, max(Fraction(1, q * (q - 2)), Fraction(1, primes.smallest_outside({q})))),
        (2, Fraction(1, q)),
        (3, Fraction(1, q) + Fraction(1, q * (q - 2))),
    )
    return ExampleInstance(f"I4[q={q}]", alpha, q, expected)


def default_instances() -> list[ExampleInstance]:
    """The instance of every published prime set, both 5-membership variants
    of I1 and I3 included, in the order of the reproduction table."""
    finite = [PrimeSet.of(*listed) for listed in ((2,), (3,), (5,), (7,), (2, 3), (2, 5), (3, 5))]
    cofinite = [PrimeSet.all_except(*excluded)
                for excluded in ((2,), (2, 5, 7), (), (3,), (3, 5), (2, 3), (2, 3, 5))]
    return [sharp_instance(primes) for primes in finite + cofinite]


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
    """The instance's rows; each pinned delta_n is read off the report's runs,
    so the work is O(records) at any N (F3 has N = p1...pk + 1)."""
    report = gap_report(instance.alpha, instance.N)
    runs = report.runs
    ends = list(accumulate(count for _, count in runs))  # run i holds the n in (ends[i-1], ends[i]]
    rows = []
    for n, expected in instance.expected:
        computed = runs[bisect_left(ends, n)][0]
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


def reproduce_all() -> ReproductionTable:
    """Run the gap engine on every published instance and compare each value exactly."""
    rows: list[ReproductionRow] = []
    for instance in default_instances():
        rows.extend(reproduce_instance(instance))
    return ReproductionTable(tuple(rows))
