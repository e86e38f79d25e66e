"""Points of the restricted product A_P, the torus X_P = A_P / Gamma_P, and their metrics.

A point is stored with finite data: the coordinate at infinity, a default
coordinate shared by every prime of the prime set that is not explicitly
overridden, and a finite override map.  The prime set is either a finite
explicit list or cofinite ("all primes except ...") , which keeps the
sup in the metric exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from types import MappingProxyType
from typing import Iterator, Mapping

from .arith import PRIMALITY_LIMIT, is_prime, next_prime, padic_abs, split_power


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

    def members(self, above: int = 1) -> Iterator[int]:
        """The set's primes greater than `above`, in increasing order: the listed
        ones when finite; when cofinite, a `next_prime` walk from `above` past the
        exclusions that never ends, so take a prefix.  A walk that stopped at p
        resumes with `members(p)`, not from 2."""
        if self.finite:
            yield from (p for p in self.listed if p > above)
            return
        p = next_prime(above)
        while True:
            if p not in self.listed:
                yield p
            p = next_prime(p)

    def smallest(self) -> int:
        return next(self.members())

    def smallest_outside(self, avoid, above: int = 1) -> int | None:
        """Smallest member greater than `above` and not in `avoid`; None if the
        finite set is exhausted.  A walk steps with p = smallest_outside(avoid, p),
        so each call resumes at the last prime and visits each member once."""
        return next((p for p in self.members(above) if p not in avoid), None)

    def first_members(self, k: int) -> list[int]:
        """The k smallest primes of the set (fewer if the set is smaller)."""
        return list(islice(self.members(), k))

    def __str__(self) -> str:
        if self.finite:
            return ",".join(str(p) for p in self.listed)
        if not self.listed:
            return "all"
        return "all-except:" + ",".join(str(p) for p in self.listed)


def _fraction(value) -> Fraction:
    """value itself when its type is exactly Fraction, else Fraction(value).

    A Fraction is immutable, so points may share one; an int, a string or a
    Fraction subclass becomes a new Fraction of the base type.
    """
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class AdelePoint:
    """Element of A_P with finite data.

    Coordinates: `at_infinity` at the real place; at a prime p of the set,
    `overrides[p]` if present, else `default_value`.  The restricted-product
    condition forces the default to be p-integral wherever it applies.
    The constructor stores `overrides` as a read-only sorted copy, and every
    coordinate as a Fraction (`_fraction`: a Fraction given is kept, not
    copied), so a point is immutable and hashable.  A point may keep caches
    in its `__dict__`: `_pairs`, its coordinates as integer pairs, and
    `_v_min_table`, the lattice table of `RotationMatrixSpec`.  They are not
    fields, so they never enter `repr`, equality or the hash.
    """

    at_infinity: Fraction
    default_value: Fraction
    overrides: Mapping[int, Fraction]
    primes: PrimeSet

    def __post_init__(self):
        object.__setattr__(self, "at_infinity", _fraction(self.at_infinity))
        object.__setattr__(self, "default_value", _fraction(self.default_value))
        object.__setattr__(self, "overrides", MappingProxyType(
            {p: _fraction(v) for p, v in sorted(self.overrides.items())}
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
                den = split_power(den, p)[1]
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

    @cached_property
    def _pairs(self) -> Pairs:
        """The coordinates as the integer pairs `_raw_abs` reads, built once."""
        inf, default = self.at_infinity, self.default_value
        return ((inf.numerator, inf.denominator), (default.numerator, default.denominator),
                {p: (v.numerator, v.denominator) for p, v in self.overrides.items()})

    def coordinate(self, p: int) -> Fraction:
        if p not in self.primes:
            raise ValueError(f"{p} is not in the prime set")
        return self.overrides.get(p, self.default_value)

    def _key(self) -> tuple:
        """What identifies the point: the prime set, the real coordinate, and on
        a finite set the coordinate at each listed prime (the default may apply
        at none), on a cofinite set the default and the overrides that differ
        from it (an override equal to the default does not change the point)."""
        if self.primes.finite:
            coordinates = tuple(self.overrides.get(p, self.default_value)
                                for p in self.primes.listed)
        else:
            coordinates = (self.default_value, tuple(
                (p, v) for p, v in self.overrides.items() if v != self.default_value
            ))
        return self.primes, self.at_infinity, coordinates

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AdelePoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        parts = [f"inf={self.at_infinity}", f"default={self.default_value}"]
        parts += [f"{p}={v}" for p, v in self.overrides.items()]
        return ";".join(parts)


class TorusPoint(AdelePoint):
    """An AdelePoint lying in the fundamental domain [0,1) x prod Z_p."""

    def __post_init__(self):
        super().__post_init__()
        inf = self.at_infinity
        if not 0 <= inf.numerator < inf.denominator:
            raise ValueError(f"coordinate at infinity {self.at_infinity} not in [0,1)")
        for p, v in self.overrides.items():
            if padic_abs(v, p) > 1:
                raise ValueError(f"coordinate {v} at prime {p} is not p-integral")
        # non-overridden primes are covered by the base-class default check

    def _multiple(self, k: int) -> "TorusPoint":
        """The reduced k*x of this reduced x, for an integer k, in closed form.

        Each coordinate a/b becomes (k*a - m*b)/b with m = floor(k * x_inf),
        from the real coordinate.  That is k*x less the diagonal element m,
        and it lies in [0,1) x prod Z_p (k times a p-adic integer is one, and
        m is in Z), so it is built without re-validation.
        """
        inf = self.at_infinity
        m = k * inf.numerator // inf.denominator

        def multiple(c: Fraction) -> Fraction:
            return Fraction(k * c.numerator - m * c.denominator, c.denominator)

        return TorusPoint._trusted(
            multiple(inf), multiple(self.default_value),
            {p: multiple(v) for p, v in self.overrides.items()}, self.primes,
        )


def _is_prime_cofactor(n: int) -> bool:
    return n < PRIMALITY_LIMIT and is_prime(n)


#: `_prime_factors` trial-divides by the integers below this bound only (about 20 ms).
TRIAL_DIVISION_LIMIT = 10**5


@lru_cache(maxsize=1 << 16)
def _prime_factors(n: int) -> tuple[int, ...] | str:
    """The distinct prime factors of n, ascending, or the message of a refusal.

    Trial division stops as soon as the remaining cofactor is a prime below
    PRIMALITY_LIMIT, so a large prime factor costs one primality test.  It
    stops at TRIAL_DIVISION_LIMIT in any case: a cofactor left then is
    composite or its primality is not decided, and n is refused.  The refusal
    is returned, not raised, so that the cache keeps it too (`lru_cache` keeps
    no raised call); the caller raises it as a ValueError.
    """
    n = abs(n)
    out = []
    d = 2
    prime_rest = _is_prime_cofactor(n)
    while not prime_rest and d * d <= n and d < TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            out.append(d)
            n = split_power(n, d)[1]
            prime_rest = _is_prime_cofactor(n)
        d += 1
    if not prime_rest and d * d <= n:
        return (f"cannot factor a {n.bit_length()}-bit cofactor: it has no prime factor below "
                f"{TRIAL_DIVISION_LIMIT} and is not a prime below {PRIMALITY_LIMIT}")
    if n > 1:
        out.append(n)
    return tuple(out)


_ZERO = Fraction(0)


def zero_point(primes: PrimeSet) -> TorusPoint:
    """The zero of A_P, which lies in the fundamental domain: a trusted TorusPoint."""
    return TorusPoint._trusted(_ZERO, _ZERO, {}, primes)


def _require_same_primes(x: AdelePoint, y: AdelePoint) -> None:
    if x.primes != y.primes:
        raise ValueError("points live over different prime sets")


def add_diagonal(x: AdelePoint, gamma) -> AdelePoint:
    """Add the diagonal embedding of gamma in Gamma_P to every coordinate.

    The one check is that gamma lies in Gamma_P.  On a finite set it divides
    the listed primes out of gamma's denominator, and anything left rejects
    gamma; nothing is factored.  On a cofinite set only the part of the
    denominator prime to x's override keys is factored, and a part that
    `_prime_factors` cannot factor raises ValueError; for the shifts `reduce`
    builds that part is 1, however large the override primes are.
    The sum is built without re-validation: x is valid, and every prime of
    gamma's denominator becomes an override key.
    """
    gamma = _fraction(gamma)
    den = gamma.denominator
    keys = set(x.overrides)
    for p in x.primes.listed if x.primes.finite else x.overrides:
        if den % p == 0:
            keys.add(p)
            den = split_power(den, p)[1]
    if x.primes.finite:
        if den != 1:
            raise ValueError(f"{gamma} is not in Gamma_P: a denominator prime is outside the set")
    else:
        factors = _prime_factors(den)
        if isinstance(factors, str):
            raise ValueError(factors)
        for p in factors:
            if p not in x.primes:
                raise ValueError(f"{gamma} is not in Gamma_P: denominator prime {p} outside the set")
            keys.add(p)
    return AdelePoint._trusted(
        x.at_infinity + gamma,
        x.default_value + gamma,
        {p: x.overrides.get(p, x.default_value) + gamma for p in sorted(keys)},
        x.primes,
    )


#: A rational a/b as the integer pair (a, b) with b > 0, not necessarily in
#: lowest terms: the distance kernel's coordinates and norms.
Pair = tuple[int, int]
#: A point's coordinates as pairs: (at infinity, default, {prime: override}).
Pairs = tuple[Pair, Pair, Mapping[int, Pair]]


def _raw_abs(x: Pairs, primes: PrimeSet, k: int, j: int, bound: Pair = (1, 0)) -> Pair:
    """Max-metric norm of k*x - j, for integers k and j, itself returned as a pair.

    x is (inf, default, coords) as `AdelePoint._pairs`: the real coordinate,
    the default at every prime of the set outside `coords`, and the explicit
    prime coordinates; each c/d is read as (k*c - j*d, d).  Precondition: x
    is the difference of two reduced points with k = 1 and j in {0, +-1}
    (`_reduced_distance`), or a reduced point with j in {m, m + 1},
    m = floor(k * x_inf) (`_multiple_distance`, the walk of `lattice`), so
    every denominator is prime to each place p where it is read.  The term
    of a/b at p is then the unit fraction |a|_p = 1/p^v_p(a), from the
    numerator alone, and it beats the best term so far when
    best_den > best_num * p^v; no Fraction is built here.

    On a cofinite set the term at p is |x_p|_p / p = 1/p^(v_p(a) + 1).
    Walking the set's primes outside `coords` upward, each p that divides the
    default's numerator adds its term, and the first p that does not adds 1/p
    and ends the walk: every later term is at most 1/p' < 1/p.  The walk
    visits at most one prime more than the numerator has prime factors, and
    each step resumes the prime search at the last p, so it tests each
    integer up to its last prime for primality once.

    The norm is a running max: it returns the first term that reaches
    `bound`, so a result below the bound is the exact norm.  The default
    bound 1/0 is never reached.
    """
    (a, b), default, coords = x
    best_num, best_den = abs(k * a - j * b), b
    bound_num, bound_den = bound
    weight = 0 if primes.finite else 1  # the 1/p of a cofinite set, as a power of p
    for p in primes.listed if primes.finite else coords:
        c, d = coords.get(p, default)
        num = k * c - j * d
        if num:
            term_den = p ** (split_power(num, p)[0] + weight)
            if best_den > best_num * term_den:
                best_num, best_den = 1, term_den
                if bound_den >= bound_num * term_den:
                    return best_num, best_den
    num = k * default[0] - j * default[1]
    if primes.finite or not num:
        return best_num, best_den
    p = 1
    while True:
        p = primes.smallest_outside(coords, p)
        if num % p:
            return (1, p) if best_den > best_num * p else (best_num, best_den)
        term_den = p ** (split_power(num, p)[0] + 1)
        if best_den > best_num * term_den:
            best_num, best_den = 1, term_den
            if bound_den >= bound_num * term_den:
                return best_num, best_den


def _fractional_p_part(v: Fraction, p: int) -> Pair:
    """(c, p^k) with 0 <= c < p^k such that v - c/p^k is p-integral.

    v is in lowest terms, so k, the exponent of p in its denominator, is
    -v_p(v) when that is positive and 0 otherwise, v = 0 included.
    """
    k, b = split_power(v.denominator, p)  # b: the p-free part of the denominator
    if k == 0:
        return 0, 1
    pk = p**k
    return v.numerator * pow(b, -1, pk) % pk, pk


def reduce(x: AdelePoint) -> tuple[TorusPoint, Fraction]:
    """Reduce into the fundamental domain; returns (xbar, gamma) with xbar = x - gamma.

    A `TorusPoint` already lies in [0,1) x prod Z_p: its constructor validated
    it, or `reduce`, `zero_point` or `TorusPoint._multiple` built it there.  It
    is returned itself, with gamma = 0, and nothing is checked again.

    Any other point is peeled per prime: at each override prime whose
    coordinate is not p-integral, subtract its fractional p-part diagonally
    (this leaves every other prime coordinate's integrality untouched, by the
    strong triangle inequality); finish by subtracting the floor of the
    coordinate at infinity.  gamma is summed as one integer pair c/d: the
    parts' denominators are powers of distinct primes, so d is their product,
    and it is made a Fraction once.  The result is validated once, by the
    `TorusPoint` constructor; `add_diagonal` checks only that gamma lies in
    Gamma_P.
    """
    if isinstance(x, TorusPoint):
        return x, _ZERO
    c, d = 0, 1
    for p, v in x.overrides.items():
        part, pk = _fractional_p_part(v, p)
        c, d = c * pk + part * d, d * pk
    a, b = x.at_infinity.numerator, x.at_infinity.denominator
    c += (a * d - c * b) // (b * d) * d  # the floor of x_inf - c/d
    gamma = Fraction(c, d)
    reduced = add_diagonal(x, -gamma)
    point = TorusPoint(
        reduced.at_infinity, reduced.default_value, reduced.overrides, reduced.primes
    )
    return point, gamma


def torus_distance(x: AdelePoint, y: AdelePoint) -> Fraction:
    """Quotient-metric distance between the cosets of x and y.

    Both points go through `reduce` into the fundamental domain, the
    precondition of `_reduced_distance`: there the minimum over Gamma_P is
    attained at the shift 0 or sign of the real difference.  `reduce` returns
    a `TorusPoint` as it is (the points `orbit` yields and the lattice path),
    so only other points are reduced.  The record engine of `gap_report` does
    not come here: it takes D[k] = d(k*xbar, 0) from xbar's integers, by
    `_multiple_distance`.
    """
    _require_same_primes(x, y)
    return _reduced_distance(reduce(x)[0], reduce(y)[0])


def _pair_difference(x: Fraction, y: Fraction) -> Pair:
    return x.numerator * y.denominator - y.numerator * x.denominator, x.denominator * y.denominator


def _shifted_min(x: Pairs, primes: PrimeSet, k: int, j: int) -> Pair:
    """min over g in Gamma_P of |D - g|, as a pair, for D = k*x - j, the
    difference of two reduced points or a reduced multiple, as `_raw_abs`
    takes it.

    |D_inf| < 1 and every prime term of D is at most 1 (1/2 on a cofinite
    set), so |D| <= 1 and only g in {-1, 0, 1} can do better.  The shift by
    -sign(D_inf) has real term 1 + |D_inf| >= 1, so it never wins;
    s = sign(D_inf) has real term 1 - |D_inf|, so it is tried, as the norm at
    j + s, only when that is below |D|.
    """
    best_num, best_den = _raw_abs(x, primes, k, j)
    b = x[0][1]
    a = k * x[0][0] - j * b
    if (b - abs(a)) * best_den < best_num * b:  # never when D_inf = 0 or |D| = 0
        num, den = _raw_abs(x, primes, k, j + (1 if a > 0 else -1))
        if num * best_den < best_num * den:
            return num, den
    return best_num, best_den


def _reduced_distance(xbar: AdelePoint, ybar: AdelePoint) -> Fraction:
    """min over g in Gamma_P of |xbar - ybar - g|, for points in the fundamental domain.

    The inputs must be reduced, and nothing here checks it: `torus_distance`
    reduces whatever is not a `TorusPoint`, and every `TorusPoint` is valid.
    Then each denominator of the difference D and of its shift is prime to
    every p where `_raw_abs` reads it, the kernel's precondition.  D is built
    as integer pairs, `_shifted_min` takes the minimum over the candidate
    shifts, and the one Fraction built is that minimum.

    Each of the two candidate norms is a max that includes its real term,
    |D_inf| or 1 - |D_inf|, and any other shift has a term of at least 1.
    So for L <= 1 the distance is below L exactly when the norm at a shift
    whose real term is below L is.  The prefix-minimum walk of `lattice`
    asks only that, of `_raw_abs` with its minimum as the bound, at the
    integers j within the minimum of k*xbar_inf, and comes here, through
    `v_min`, only at the k where the minimum drops.
    """
    x_default, y_default = xbar.default_value, ybar.default_value
    coords = {
        p: _pair_difference(xbar.overrides.get(p, x_default), ybar.overrides.get(p, y_default))
        for p in {*xbar.overrides, *ybar.overrides}
    }
    x = (_pair_difference(xbar.at_infinity, ybar.at_infinity),
         _pair_difference(x_default, y_default), coords)
    return Fraction(*_shifted_min(x, xbar.primes, 1, 0))


def _multiple_distance(xbar: TorusPoint, k: int) -> Pair:
    """D[k] = d(k*xbar, 0) for a reduced xbar and an integer k >= 0, as a pair.

    It is the least norm of k*xbar - j over j in {m, m + 1},
    m = floor(k * xbar_inf): k*xbar - m is the reduced k*xbar of
    `TorusPoint._multiple`, which is also its difference with 0, and
    `_shifted_min` tries m + 1 when it can win.  The norms read xbar's
    integer pairs (`AdelePoint._pairs`) as they are; no point, no shifted
    pair and no Fraction is built.
    """
    x = xbar._pairs
    a, b = x[0]
    return _shifted_min(x, xbar.primes, k, k * a // b)
