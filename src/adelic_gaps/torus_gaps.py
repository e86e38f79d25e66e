"""Rotation orbits on the adelic torus and their nearest-neighbor gap statistics."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .adele import AdelePoint, TorusPoint, _multiple_distance, _reduced_distance, reduce, zero_point


class DegenerateOrbitError(ValueError):
    """Raised when no orbit point has a nearest neighbor at positive distance, so
    no gap is defined: every pairwise distance is zero, or N = 1."""


@dataclass(frozen=True)
class GapReport:
    """Nearest-neighbor distances of one (alpha, N) instance."""

    N: int
    deltas: list[Fraction]  # deltas[n-1] is the distance for the n-th orbit point
    distinct_gaps: list[Fraction]  # sorted, duplicate-free; the objects deltas holds
    gap_count: int
    witnesses: dict[Fraction, int]  # gap value -> the least index n attaining it, ascending


class _Orbit(Sequence):
    """The reduced points n*alpha, 1 <= n <= N, each built when it is read.

    Item i is the point n = i + 1, in closed form from the reduced alpha
    (`TorusPoint._multiple`); indices and slices behave as on a list.
    """

    def __init__(self, first: TorusPoint, N: int):
        self._first = first
        self._N = N

    def __len__(self) -> int:
        return self._N

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._N))]
        i = operator.index(i)
        if i < 0:
            i += self._N
        if not 0 <= i < self._N:
            raise IndexError("orbit index out of range")
        return self._first._multiple(i + 1)


def orbit(alpha: AdelePoint, N: int) -> Sequence[TorusPoint]:
    """The reduced points n*alpha for 1 <= n <= N, as a lazy sequence.

    Only alpha itself goes through `reduce`.  The fundamental domain
    [0,1) x prod Z_p holds one point of each coset, so the reduced n*alpha is
    n times the reduced alpha less the floor of its real coordinate, in every
    coordinate; a point is built only when it is read.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return _Orbit(reduce(alpha)[0], N)


def _deltas(alpha: AdelePoint, N: int) -> list[Fraction]:
    """deltas[n-1] = least positive d(n*alpha, m*alpha) over 1 <= m <= N.

    The quotient metric is translation-invariant, so d(n*alpha, m*alpha) =
    D[|n-m|] with D[k] = d(k*alpha, 0), and delta_n is the least positive
    D[k] over 1 <= k <= max(n-1, N-n): a prefix minimum over N - 1 values.
    With a/b the real coordinate of the reduced alpha, the reduced k*alpha
    has real coordinate r/b, r = k*a mod b, and D[k] is at least
    min(r, b - r)/b (see `_reduced_distance`), so a k whose bound reaches the
    running minimum L cannot lower it: L is kept, and D[k] is not computed.
    A D[k] that is computed, k >= 2, comes from the reduced alpha's integers
    as a pair (`_multiple_distance`) and is compared with L by
    cross-multiplication; a Fraction is built only when L drops.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N == 1:
        raise DegenerateOrbitError("N = 1: a single orbit point has no nearest neighbor")
    first = orbit(alpha, N - 1)[0]
    low = _reduced_distance(first, zero_point(alpha.primes))
    # k = 1 lies in every window, so the orbit is degenerate exactly when D[1]
    # is zero (alpha in Gamma_P)
    if low == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    a, b = first.at_infinity.numerator, first.at_infinity.denominator
    low_num, low_den = low.numerator, low.denominator
    least = [low]  # least[k-1] = least positive D[j] over j <= k
    for k in range(2, N):
        r = k * a % b
        if min(r, b - r) * low_den < low_num * b:
            num, den = _multiple_distance(first, k)
            if num and num * low_den < low_num * den:
                low_num, low_den = num, den
                low = Fraction(num, den)
        least.append(low)
    # delta_n = least[max(n-1, N-n) - 1]: radius N - n for n <= h, n - 1 after
    h = (N + 1) // 2
    return least[::-1][:h] + least[h - 1:]


def gap_report(alpha: AdelePoint, N: int) -> GapReport:
    """All nearest-neighbor distances, the distinct values, and their count.

    delta_n is the prefix minimum at radius max(n-1, N-n), which strictly
    falls for n <= (N+1)//2; every later n repeats one of those radii.  So
    the first half of the deltas is nondecreasing and holds every value, and
    one walk over it, comparing each delta_n with the last new value, gives
    the distinct gaps in ascending order, each with its least witness n.
    """
    deltas = _deltas(alpha, N)
    distinct = []
    witnesses = {}
    for n in range(1, (N + 1) // 2 + 1):
        d = deltas[n - 1]
        # a repeat is the same object as the last new value on every path of
        # `_deltas`, and `is` costs far less than comparing two Fractions
        if not distinct or d is not distinct[-1] and d != distinct[-1]:
            distinct.append(d)
            witnesses[d] = n
    return GapReport(N, deltas, distinct, len(distinct), witnesses)

