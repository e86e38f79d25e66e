"""Points of the restricted product A_P, the torus X_P = A_P / Gamma_P, and their metrics.

A point is stored with finite data: the coordinate at infinity, a default
coordinate shared by every prime of the prime set that is not explicitly
overridden, and a finite override map.  The prime set is either a finite
explicit list or cofinite ("all primes except ...") , which keeps the
sup in the ambient metric exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor
from types import MappingProxyType
from typing import Mapping

from .arith import PRIMALITY_LIMIT, is_prime, next_prime, padic_abs, valuation


@dataclass(frozen=True)
class PrimeSet:
    """Finite explicit set of primes, or the cofinite complement of one.

    `listed` holds the members when `finite`, the exclusions otherwise.
    """

    finite: bool
    listed: tuple[int, ...]

    def __post_init__(self):
        listed = tuple(self.listed)
        object.__setattr__(self, "listed", listed)
        for p in listed:
            if not is_prime(p):
                raise ValueError(f"invalid prime: {p}")
        if list(listed) != sorted(set(listed)):
            raise ValueError("prime list must be sorted and duplicate-free")
        if self.finite and not listed:
            raise ValueError("finite prime set must be non-empty")

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(True, tuple(sorted(primes)))

    @classmethod
    def all_except(cls, *excluded: int) -> "PrimeSet":
        return cls(False, tuple(sorted(excluded)))

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls(False, ())

    def __contains__(self, p: int) -> bool:
        if self.finite:
            return p in self.listed
        return is_prime(p) and p not in self.listed

    def smallest(self) -> int:
        return self.smallest_outside(())

    def smallest_outside(self, avoid) -> int | None:
        """Smallest member not in `avoid`; None if the finite set is exhausted."""
        if self.finite:
            for p in self.listed:
                if p not in avoid:
                    return p
            return None
        p = 2
        while p in self.listed or p not in self or p in avoid:
            p = next_prime(p)
        return p

    def first_members(self, k: int) -> list[int]:
        """The k smallest primes of the set (fewer if the set is smaller)."""
        if self.finite:
            return list(self.listed[:k])
        out: list[int] = []
        p = 2
        while len(out) < k:
            if p in self:
                out.append(p)
            p = next_prime(p)
        return out

    def __str__(self) -> str:
        if self.finite:
            return ",".join(str(p) for p in self.listed)
        if not self.listed:
            return "all"
        return "all-except:" + ",".join(str(p) for p in self.listed)


@dataclass(frozen=True)
class AdelePoint:
    """Element of A_P with finite data.

    Coordinates: `at_infinity` at the real place; at a prime p of the set,
    `overrides[p]` if present, else `default_value`.  The restricted-product
    condition forces the default to be p-integral wherever it applies.
    The constructor stores `overrides` as a read-only sorted copy, so a point
    is immutable and hashable.
    """

    at_infinity: Fraction
    default_value: Fraction
    overrides: Mapping[int, Fraction]
    primes: PrimeSet

    def __post_init__(self):
        object.__setattr__(self, "at_infinity", Fraction(self.at_infinity))
        object.__setattr__(self, "default_value", Fraction(self.default_value))
        object.__setattr__(self, "overrides", MappingProxyType(
            {p: Fraction(v) for p, v in sorted(self.overrides.items())}
        ))
        for p in self.overrides:
            if p not in self.primes:
                raise ValueError(f"override key {p} is not a prime of the prime set")
        den = self.default_value.denominator
        if self.primes.finite:
            for p in self.primes.listed:
                if den % p == 0 and p not in self.overrides:
                    raise ValueError(
                        f"default coordinate {self.default_value} is not {p}-integral "
                        f"and {p} is not overridden"
                    )
        elif den > 1:
            # every prime outside the exclusions is in the set: what the excluded
            # and overridden primes leave of the denominator must be 1
            for p in (*self.primes.listed, *self.overrides):
                while den % p == 0:
                    den //= p
            if den != 1:
                raise ValueError(
                    f"default coordinate {self.default_value} is not integral at a prime "
                    f"of the set that is not overridden"
                )

    def coordinate(self, p: int) -> Fraction:
        if p not in self.primes:
            raise ValueError(f"{p} is not in the prime set")
        return self.overrides.get(p, self.default_value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdelePoint):
            return NotImplemented
        if self.primes != other.primes or self.at_infinity != other.at_infinity:
            return False
        keys = set(self.overrides) | set(other.overrides)
        if any(self.coordinate(p) != other.coordinate(p) for p in keys):
            return False
        return self.default_value == other.default_value

    def __hash__(self) -> int:
        # an override equal to the default does not change the point (see __eq__)
        differing = frozenset(
            (p, v) for p, v in self.overrides.items() if v != self.default_value
        )
        return hash((self.primes, self.at_infinity, self.default_value, differing))

    def __str__(self) -> str:
        parts = [f"inf={self.at_infinity}", f"default={self.default_value}"]
        parts += [f"{p}={v}" for p, v in self.overrides.items()]
        return ";".join(parts)


class TorusPoint(AdelePoint):
    """An AdelePoint lying in the fundamental domain [0,1) x prod Z_p."""

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.at_infinity < 1:
            raise ValueError(f"coordinate at infinity {self.at_infinity} not in [0,1)")
        for p, v in self.overrides.items():
            if padic_abs(v, p) > 1:
                raise ValueError(f"coordinate {v} at prime {p} is not p-integral")
        # non-overridden primes are covered by the base-class default check


def _is_prime_cofactor(n: int) -> bool:
    return n < PRIMALITY_LIMIT and is_prime(n)


@lru_cache(maxsize=1 << 16)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n, ascending.

    Trial division stops as soon as the remaining cofactor is a prime below
    PRIMALITY_LIMIT, so a large prime factor costs one primality test.  A
    cofactor with two large prime factors is still trial-divided.
    """
    n = abs(n)
    out = []
    d = 2
    prime_rest = _is_prime_cofactor(n)
    while not prime_rest and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            prime_rest = _is_prime_cofactor(n)
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def zero_point(primes: PrimeSet) -> AdelePoint:
    return AdelePoint(Fraction(0), Fraction(0), {}, primes)


def _require_same_primes(x: AdelePoint, y: AdelePoint) -> None:
    if x.primes != y.primes:
        raise ValueError("points live over different prime sets")


def add(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    """Coordinatewise sum."""
    _require_same_primes(x, y)
    keys = set(x.overrides) | set(y.overrides)
    return AdelePoint(
        x.at_infinity + y.at_infinity,
        x.default_value + y.default_value,
        {p: x.coordinate(p) + y.coordinate(p) for p in keys},
        x.primes,
    )


def negate(x: AdelePoint) -> AdelePoint:
    return AdelePoint(
        -x.at_infinity, -x.default_value, {p: -v for p, v in x.overrides.items()}, x.primes
    )


def sub(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    return add(x, negate(y))


def scale_by_integer(x: AdelePoint, n: int) -> AdelePoint:
    return AdelePoint(
        n * x.at_infinity,
        n * x.default_value,
        {p: n * v for p, v in x.overrides.items()},
        x.primes,
    )


def add_diagonal(x: AdelePoint, gamma) -> AdelePoint:
    """Add the diagonal embedding of gamma in Gamma_P to every coordinate.

    Only the part of gamma's denominator prime to x's override keys is
    factored; for the shifts `reduce` builds that part is 1, however large the
    override primes are.
    """
    gamma = Fraction(gamma)
    den = gamma.denominator
    for p in x.overrides:
        while den % p == 0:
            den //= p
    keys = set(x.overrides)
    for p in _prime_factors(den):
        if p not in x.primes:
            raise ValueError(f"{gamma} is not in Gamma_P: denominator prime {p} outside the set")
        keys.add(p)
    return AdelePoint(
        x.at_infinity + gamma,
        x.default_value + gamma,
        {p: x.coordinate(p) + gamma for p in keys},
        x.primes,
    )


def diagonal_point(gamma, primes: PrimeSet) -> AdelePoint:
    """The diagonal embedding of gamma in Gamma_P as an AdelePoint."""
    return add_diagonal(zero_point(primes), gamma)


def _raw_abs(at_infinity: Fraction, default: Fraction, coords: dict[int, Fraction], primes: PrimeSet) -> Fraction:
    """Max-metric norm from raw coordinate data (coords = explicit prime coordinates).

    On a cofinite set the term at p is |x_p|_p / p.  A prime outside `coords`
    carries the default d, and validity already puts every prime of the set
    that divides d's denominator among the keys of `coords`, so there |d|_p <= 1
    and the denominator is never factored.  Walking the set's primes outside
    `coords` upward, each p that divides d's numerator adds |d|_p / p, and the
    first p that does not adds 1/p and ends the walk: every later term is at
    most 1/p' < 1/p.  The walk visits at most one prime more than d's
    numerator has prime factors.
    """
    best = abs(at_infinity)
    if primes.finite:
        for p in primes.listed:
            term = padic_abs(coords.get(p, default), p)
            if term > best:
                best = term
        return best
    for p, v in coords.items():
        term = padic_abs(v, p) / p
        if term > best:
            best = term
    if default != 0:
        numerator = default.numerator
        avoid = set(coords)
        while True:
            p = primes.smallest_outside(avoid)
            if numerator % p:
                return max(best, Fraction(1, p))
            term = padic_abs(default, p) / p
            if term > best:
                best = term
            avoid.add(p)
    return best


def ambient_abs(x: AdelePoint) -> Fraction:
    """Distance to zero under the max metric (with weight 1/p when the set is infinite)."""
    return _raw_abs(x.at_infinity, x.default_value, x.overrides, x.primes)


def ambient_metric(x: AdelePoint, y: AdelePoint) -> Fraction:
    _require_same_primes(x, y)
    return ambient_abs(sub(x, y))


def _fractional_p_part(v: Fraction, p: int) -> Fraction:
    """c/p^k with 0 <= c < p^k such that v - c/p^k is p-integral."""
    k = -valuation(v, p)
    if k <= 0:
        return Fraction(0)
    pk = p**k
    b = v.denominator // pk  # p-free part of the denominator
    c = (v.numerator * pow(b, -1, pk)) % pk
    return Fraction(c, pk)


def reduce(x: AdelePoint) -> tuple[TorusPoint, Fraction]:
    """Reduce into the fundamental domain; returns (xbar, gamma) with xbar = x - gamma.

    Per-prime peeling: at each override prime whose coordinate is not p-integral,
    subtract its fractional p-part diagonally (this leaves every other prime
    coordinate's integrality untouched, by the strong triangle inequality);
    finish by subtracting the floor of the coordinate at infinity.
    """
    gamma = Fraction(0)
    for p, v in x.overrides.items():
        gamma += _fractional_p_part(v, p)
    gamma += floor(x.at_infinity - gamma)
    reduced = add_diagonal(x, -gamma)
    point = TorusPoint(
        reduced.at_infinity, reduced.default_value, reduced.overrides, reduced.primes
    )
    return point, gamma


def torus_distance(x: AdelePoint, y: AdelePoint) -> Fraction:
    """Quotient-metric distance between the cosets of x and y.

    Both points are reduced to the fundamental domain first, after which the
    minimum over Gamma_P is attained at a diagonal shift in {-1, 0, 1}.
    """
    _require_same_primes(x, y)
    xbar, _ = reduce(x)
    ybar, _ = reduce(y)
    return _reduced_distance(xbar, ybar)


def _reduced_distance(xbar: AdelePoint, ybar: AdelePoint) -> Fraction:
    # raw-coordinate hot path: avoids intermediate AdelePoint construction
    inf = xbar.at_infinity - ybar.at_infinity
    default = xbar.default_value - ybar.default_value
    keys = set(xbar.overrides) | set(ybar.overrides)
    coords = {p: xbar.coordinate(p) - ybar.coordinate(p) for p in keys}
    best = None
    for g in (0, 1, -1):
        val = _raw_abs(inf - g, default - g, {p: v - g for p, v in coords.items()}, xbar.primes)
        if best is None or val < best:
            best = val
            if best == 0:
                break
    return best

