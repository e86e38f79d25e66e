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
from itertools import islice
from math import floor
from types import MappingProxyType
from typing import Iterator, Mapping

from .arith import PRIMALITY_LIMIT, int_valuation, is_prime, next_prime, padic_abs, valuation


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

    def members(self) -> Iterator[int]:
        """The set's primes in increasing order: `listed` when finite; when cofinite,
        a `next_prime` walk past the exclusions that never ends, so take a prefix."""
        if self.finite:
            yield from self.listed
            return
        p = 2
        while True:
            if p not in self.listed:
                yield p
            p = next_prime(p)

    def smallest(self) -> int:
        return next(self.members())

    def smallest_outside(self, avoid) -> int | None:
        """Smallest member not in `avoid`; None if the finite set is exhausted."""
        return next((p for p in self.members() if p not in avoid), None)

    def first_members(self, k: int) -> list[int]:
        """The k smallest primes of the set (fewer if the set is smaller)."""
        return list(islice(self.members(), k))

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

    @classmethod
    def _trusted(cls, at_infinity: Fraction, default_value: Fraction,
                 overrides: dict[int, Fraction], primes: PrimeSet):
        """A point from coordinates the caller already knows to be valid for `cls`.

        Skips `__post_init__`: the coordinates must be Fractions and `overrides`
        a sorted dict that nothing else holds.
        """
        point = object.__new__(cls)
        object.__setattr__(point, "at_infinity", at_infinity)
        object.__setattr__(point, "default_value", default_value)
        object.__setattr__(point, "overrides", MappingProxyType(overrides))
        object.__setattr__(point, "primes", primes)
        return point

    def coordinate(self, p: int) -> Fraction:
        if p not in self.primes:
            raise ValueError(f"{p} is not in the prime set")
        return self.overrides.get(p, self.default_value)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AdelePoint):
            return NotImplemented
        if self.primes != other.primes or self.at_infinity != other.at_infinity:
            return False
        if self.primes.finite:
            # the default is read only where no override is; there may be no such prime
            return self._listed_coordinates() == other._listed_coordinates()
        keys = set(self.overrides) | set(other.overrides)
        if any(self.coordinate(p) != other.coordinate(p) for p in keys):
            return False
        return self.default_value == other.default_value

    def _listed_coordinates(self) -> tuple[Fraction, ...]:
        """The coordinate at each prime of a finite set, in the set's order."""
        return tuple(self.overrides.get(p, self.default_value) for p in self.primes.listed)

    def __hash__(self) -> int:
        # the point is immutable, so the hash is computed once; it is kept
        # outside the dataclass fields, which repr and fields read
        h = self.__dict__.get("_hash")
        if h is None:
            if self.primes.finite:
                coordinates = self._listed_coordinates()
            else:
                # an override equal to the default does not change the point (see __eq__)
                coordinates = (self.default_value, frozenset(
                    (p, v) for p, v in self.overrides.items() if v != self.default_value
                ))
            h = hash((self.primes, self.at_infinity, coordinates))
            object.__setattr__(self, "_hash", h)
        return h

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


def zero_point(primes: PrimeSet) -> TorusPoint:
    """The zero of A_P, which lies in the fundamental domain: a trusted TorusPoint."""
    return TorusPoint._trusted(Fraction(0), Fraction(0), {}, primes)


def _require_same_primes(x: AdelePoint, y: AdelePoint) -> None:
    if x.primes != y.primes:
        raise ValueError("points live over different prime sets")


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


#: A rational a/b as the integer pair (a, b) with b > 0, not necessarily in
#: lowest terms: the distance kernel's coordinates and norms.
Pair = tuple[int, int]


def _pair(r: Fraction) -> Pair:
    return r.numerator, r.denominator


def _padic_pair(num: int, den: int, p: int) -> Pair:
    """|num/den|_p as a pair, from the valuations of num != 0 and den."""
    e = int_valuation(num, p) - int_valuation(den, p)
    return (1, p**e) if e >= 0 else (p**-e, 1)


def _raw_abs(inf: Pair, default: Pair, coords: Mapping[int, Pair], primes: PrimeSet) -> Pair:
    """Max-metric norm from raw coordinate pairs, itself returned as a pair.

    `inf` is the coordinate at the real place, `coords` the explicit prime
    coordinates and `default` the coordinate at every other prime of the set;
    a coordinate need not be p-integral.  The term of a/b at p is
    |a/b|_p = p^-(v_p(a) - v_p(b)), from `int_valuation`, and terms are
    compared by cross-multiplication, so no Fraction is built here: the
    caller makes one from the pair it keeps.

    On a cofinite set the term at p is |x_p|_p / p.  A prime outside `coords`
    carries the default d = a/b, and validity already puts every prime of the
    set that divides b among the keys of `coords`, so there b is prime to p
    and |d|_p <= 1.  Walking the set's primes outside `coords` upward, each p
    that divides a adds |d|_p / p, and the first p that does not adds 1/p and
    ends the walk: every later term is at most 1/p' < 1/p.  The walk visits at
    most one prime more than a has prime factors.
    """
    best_num, best_den = abs(inf[0]), inf[1]
    if primes.finite:
        for p in primes.listed:
            num, den = coords.get(p, default)
            if num:
                term_num, term_den = _padic_pair(num, den, p)
                if term_num * best_den > best_num * term_den:
                    best_num, best_den = term_num, term_den
        return best_num, best_den
    for p, (num, den) in coords.items():
        if num:
            term_num, term_den = _padic_pair(num, den, p)
            if term_num * best_den > best_num * term_den * p:
                best_num, best_den = term_num, term_den * p
    num, den = default
    if num:
        avoid = set(coords)
        while True:
            p = primes.smallest_outside(avoid)
            if num % p:
                return (1, p) if best_den > best_num * p else (best_num, best_den)
            term_den = p ** (int_valuation(num, p) + 1)  # |d|_p / p, as b is prime to p
            if best_den > best_num * term_den:
                best_num, best_den = 1, term_den
            avoid.add(p)
    return best_num, best_den


def ambient_abs(x: AdelePoint) -> Fraction:
    """Distance to zero under the max metric (with weight 1/p when the set is infinite)."""
    coords = {p: _pair(v) for p, v in x.overrides.items()}
    num, den = _raw_abs(_pair(x.at_infinity), _pair(x.default_value), coords, x.primes)
    return Fraction(num, den)


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

    A point that is not a `TorusPoint` is reduced to the fundamental domain
    first, which is the precondition of `_reduced_distance`: there the minimum
    over Gamma_P is attained at the shift 0 or sign of the real difference.
    A `TorusPoint` already lies in the domain, validated by its constructor or
    built there by `reduce`, `orbit`, `zero_point` or the lattice path, so it is
    used as it is.
    """
    _require_same_primes(x, y)
    xbar = x if isinstance(x, TorusPoint) else reduce(x)[0]
    ybar = y if isinstance(y, TorusPoint) else reduce(y)[0]
    return _reduced_distance(xbar, ybar)


def _pair_difference(x: Fraction, y: Fraction) -> Pair:
    return x.numerator * y.denominator - y.numerator * x.denominator, x.denominator * y.denominator


def _reduced_distance(xbar: AdelePoint, ybar: AdelePoint) -> Fraction:
    """min over g in Gamma_P of |xbar - ybar - g|, for points in the fundamental domain.

    The inputs must be reduced.  Then |D_inf| < 1 and every prime term of the
    difference D is at most 1 (1/2 on a cofinite set), so |D| <= 1 and only
    g in {-1, 0, 1} can do better.  The shift by -sign(D_inf) has real term
    1 + |D_inf| >= 1, so it never wins; s = sign(D_inf) has real term
    1 - |D_inf|, so it is tried only when that is below |D|.  The difference
    and its shift are integer pairs (see `_raw_abs`), so the one Fraction
    built is the minimum.

    Each of the two candidate norms is a max that includes its real term,
    |D_inf| or 1 - |D_inf|, so the distance is at least
    min(|D_inf|, 1 - |D_inf|), the distance from D_inf to the nearest integer.
    The prefix-minimum walks of `torus_gaps` and `lattice` skip, on this
    bound, every k whose distance to 0 cannot set a new minimum.
    """
    x_default, y_default = xbar.default_value, ybar.default_value
    inf = _pair_difference(xbar.at_infinity, ybar.at_infinity)
    default = _pair_difference(x_default, y_default)
    coords = {
        p: _pair_difference(xbar.overrides.get(p, x_default), ybar.overrides.get(p, y_default))
        for p in {*xbar.overrides, *ybar.overrides}
    }
    best_num, best_den = _raw_abs(inf, default, coords, xbar.primes)
    a, b = inf
    if (b - abs(a)) * best_den < best_num * b:  # never when D_inf = 0 or |D| = 0
        s = 1 if a > 0 else -1
        num, den = _raw_abs(
            (a - s * b, b),
            (default[0] - s * default[1], default[1]),
            {p: (c - s * d, d) for p, (c, d) in coords.items()},
            xbar.primes,
        )
        if num * best_den < best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)
