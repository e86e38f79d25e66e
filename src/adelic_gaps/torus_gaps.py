"""Rotation orbits on the adelic torus and their nearest-neighbor gap statistics."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .adele import AdelePoint, TorusPoint, _multiple_distance, _reduced_distance, reduce, zero_point


class DegenerateOrbitError(ValueError):
    """Raised when no orbit point has a nearest neighbor at positive distance, so
    no gap is defined: every pairwise distance is zero, or N = 1."""


def record_runs(ks: list[int], values: Iterable, N: int) -> list[tuple[object, int]]:
    """delta_1, ..., delta_N as runs (value, count) in n order, where delta_n is
    the record in force at radius max(n-1, N-n).

    Record i, (ks[i], values[i]), ks ascending and below N, is in force on the
    radii ks[i] <= r < ends[i], ends = ks[1:] + [N].  With h = (N+1)//2, the
    n <= h take the radii N-1 down to N-h, so record i covers
    [max(ks[i], N-h), ends[i]) there, last record first; the n > h take the
    radii h up to N-1, so record i covers [max(ks[i], h), ends[i]), ascending.
    A record with no radius in a range has no run in it.  The runs are
    O(records), each value one of the objects `values` holds; values past
    the last record are not read.
    """
    h = (N + 1) // 2
    first, second = [], []  # the runs of the n <= h, last record first, and of the n > h
    for k, end, value in zip(ks, ks[1:] + [N], values):
        if end > N - h:
            first.append((value, end - max(k, N - h)))
        if end > h:
            second.append((value, end - max(k, h)))
    return first[::-1] + second


@dataclass(frozen=True)
class GapReport:
    """Nearest-neighbor distances of one (alpha, N) instance."""

    N: int
    # (ks, values): the records of D[k] = d(k*alpha, 0) over 1 <= k <= N - 1 (`_records`)
    records: tuple[list[int], list[Fraction]]

    @cached_property
    def runs(self) -> list[tuple[Fraction, int]]:
        """delta_1, ..., delta_N as runs (value, count) in n order, read off the
        records by `record_runs`: O(records) of them, each value one of the
        objects records holds.  The metric is translation-invariant, so delta_n
        is the least positive D[k], k <= max(n-1, N-n): the record in force there."""
        return record_runs(*self.records, self.N)

    @cached_property
    def witnesses(self) -> dict[Fraction, int]:
        """Gap value -> the least index n attaining it, ascending; the objects
        records holds.  `runs` lists the n <= ceil(N/2) first, smallest gap
        first, and every later n repeats one of their radii, so each value's
        first run starts at its least witness and the values come ascending.
        The runs of one record share its value object and distinct records
        have distinct values, so runs are matched by identity and each gap is
        hashed once, by the dict returned."""
        firsts, n = {}, 1
        for value, count in self.runs:
            firsts.setdefault(id(value), (value, n))
            n += count
        return dict(firsts.values())

    @property
    def distinct_gaps(self) -> list[Fraction]:
        """The distinct gaps, ascending."""
        return list(self.witnesses)

    @property
    def gap_count(self) -> int:
        """g_N, the number of distinct gaps."""
        return len(self.witnesses)


def orbit(alpha: AdelePoint, N: int) -> Iterator[TorusPoint]:
    """The reduced points n*alpha for 1 <= n <= N, in order, each built when reached.

    N is checked and alpha reduced when this is called; only alpha goes
    through `reduce`.  The fundamental domain [0,1) x prod Z_p holds one point
    of each coset, so the reduced n*alpha is n times the reduced alpha less
    the floor of its real coordinate, in every coordinate
    (`TorusPoint._multiple`); at n = 1 that floor is 0, so the first point is
    the reduced alpha itself.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    first = reduce(alpha)[0]
    return chain((first,), (first._multiple(n) for n in range(2, N + 1)))


def _first_near_zero(A: int, M: int, H: int) -> int:
    """The least k >= 1 with A*k mod M within H of 0, a residue in [0, H] or
    [M - H, M), for M >= 1 and H >= 0.

    Every smaller k is strictly farther from 0, so k is a best approximation
    of the second kind of A/M: a convergent denominator.  Euclid's algorithm
    on (M, A mod M) yields them as q, with the remainders r = |q*A - p*M|
    falling, and the answer is the first q with r <= H.  The last r is 0, at
    q = M / gcd(A, M), so there is one, after O(log M) steps; at H = 0 it is
    that last q, taken from one gcd.
    """
    if not H:
        return M // gcd(A, M)
    r0, r1, q0, q1 = M, A % M, 0, 1
    while r1 > H:
        a = r0 // r1
        r0, r1, q0, q1 = r1, r0 - a * r1, q1, q0 + a * q1
    return q1


def _congruence(xbar: TorusPoint, K: int) -> Callable[[int, int], tuple[int, int]]:
    """The congruence of xbar's windows as one state: at(num, den) gives (Q, u)
    such that, for 1 <= k <= K and an integer j with |k*xbar_inf - j| < L,
    L = num/den <= 1 and no larger than at the last call, every p-term of
    k*xbar - j is below L exactly when j = k*u mod Q.

    With L <= 1 only an integer shift j can bring D[k] below L: any other
    element of Gamma_P has p-adic size at least p at some prime of the set.
    The term at p is w_p * |k*xbar_p - j|_p, w_p being 1 on a finite set and
    1/p on a cofinite one.  It is below L for every j when w_p < L, and
    otherwise exactly when j = k*xbar_p mod p^e, with e the least exponent
    such that w_p / p^e < L.  As L falls p^e only rises, to p^e', and u
    already meets the congruence mod p^e, so one CRT step modulo the rise
    p^(e'-e), with the inverse of Q/p^e there, lifts (Q, u): nothing is
    rebuilt.  Every listed prime of a finite set, and every override prime of
    a cofinite one, keeps its constraint.  The other primes p <= 1/L of a
    cofinite set carry the default c/d, each stating p^e | j*d - k*c, and are
    walked in increasing order (`PrimeSet.members()`).  As 0 <= j <= k <= K
    bounds |j*d - k*c| by (K + 1)(|c| + d), the walk resumes where it stopped
    only while the product R of their moduli is at most that bound.  No prime
    is ever dropped: each kept p was at most 1/L when it was added, so its
    constraint holds at every later L, and once R exceeds the bound the kept
    ones force j*d = k*c, which implies every other default congruence.
    """
    primes, default, overrides = xbar.primes, xbar.default_value, xbar.overrides
    powers = dict.fromkeys(primes.listed if primes.finite else overrides, 1)  # p -> p^e
    bound = (K + 1) * (abs(default.numerator) + default.denominator)
    walk = iter(()) if primes.finite else (p for p in primes.members() if p not in overrides)
    Q, u, R, p = 1, 0, 1, next(walk, None)

    def lift(q: int, num: int, den: int) -> None:
        """Raise q^e to the least one with w_q / q^e < L, and (Q, u) and R with it."""
        nonlocal Q, u, R
        pe, rise, scale = powers.get(q, 1), 1, num if primes.finite else num * q
        while pe * rise * scale <= den:  # until w_q / q^e < L
            rise *= q
        if rise > 1:
            c = overrides.get(q, default)
            t = (c.numerator - u * c.denominator) // pe  # exact: c = u mod pe
            u += Q * (t * pow(c.denominator * (Q // pe), -1, rise) % rise)
            Q, R, powers[q] = Q * rise, R if q in overrides else R * rise, pe * rise

    def at(num: int, den: int) -> tuple[int, int]:
        nonlocal p
        for q in powers:
            lift(q, num, den)
        while p and R <= bound and p * num <= den:  # w_p = 1/p >= L
            lift(p, num, den)
            p = next(walk)
        return Q, u

    return at


def _records(alpha: AdelePoint, K: int) -> tuple[list[int], list[Fraction]]:
    """The records of D[k] = d(k*alpha, 0) over 1 <= k <= K, as (ks, values).

    ks = [1, k_2, ...] are the k at which the least positive D[j], j <= k,
    strictly falls, and values[i] = D[ks[i]] is that least value.  Each record
    is found from the one before it, in time that does not grow with K.  With
    L the current record value and a/b the real coordinate of the reduced
    alpha, D[k] < L holds exactly when some integer j has |k*a/b - j| < L and
    j = k*u mod Q (one `_congruence` state, lifted as L falls), that is, when
    (a - u*b)*k mod Q*b lies within L*b of 0.  No k up to the last record has
    D[k] < L, so the next record is the least such k >= 1, a convergent
    denominator of (a - u*b)/(Q*b) (`_first_near_zero`), and D there, from
    the reduced alpha's integers as a pair (`_multiple_distance`), is its
    value.  A D of 0 there means k*alpha lies in Gamma_P: D[k] is then
    periodic with period k, and no later D falls below L, so the list is
    complete.  D[1] comes from `_reduced_distance`.  Raises
    DegenerateOrbitError when D[1] = 0: alpha is then in Gamma_P, and all
    orbit points coincide.
    """
    first = next(orbit(alpha, K))
    low = _reduced_distance(first, zero_point(alpha.primes))
    if low == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    a, b = first.at_infinity.numerator, first.at_infinity.denominator
    num, den = low.numerator, low.denominator
    ks, values, congruence = [1], [low], _congruence(first, K)
    while True:
        Q, u = congruence(num, den)
        k = _first_near_zero(a - u * b, Q * b, (num * b - 1) // den)  # H < L*b
        if k > K:
            return ks, values
        num, den = _multiple_distance(first, k)
        if not num:  # k*alpha lies in Gamma_P
            return ks, values
        ks.append(k)
        values.append(Fraction(num, den))


def gap_report(alpha: AdelePoint, N: int) -> GapReport:
    """The report of the N-point orbit of alpha: the records of D[k] up to N - 1.

    Raises ValueError when N < 1, and DegenerateOrbitError when N = 1 or alpha
    lies in Gamma_P, where no orbit point has a neighbor at positive distance.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N == 1:
        raise DegenerateOrbitError("N = 1: a single orbit point has no nearest neighbor")
    return GapReport(N, _records(alpha, N - 1))
