"""Rotation orbits on the adelic torus and their nearest-neighbor gap statistics."""

from __future__ import annotations

from collections.abc import Iterator
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
    # gap value -> the least index n attaining it, ascending; the objects deltas holds
    witnesses: dict[Fraction, int]

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
    (`TorusPoint._multiple`).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    first = reduce(alpha)[0]
    return (first._multiple(n) for n in range(1, N + 1))


def _records(alpha: AdelePoint, K: int) -> tuple[list[int], list[Fraction]]:
    """The records of D[k] = d(k*alpha, 0) over 1 <= k <= K, as (ks, values).

    ks = [1, k_2, ...] are the k at which the least positive D[j], j <= k,
    strictly falls, and values[i] = D[ks[i]] is that least value.
    With a/b the real coordinate of the reduced alpha, the reduced k*alpha
    has real coordinate r/b, r = k*a mod b, and D[k] is at least
    min(r, b - r)/b (see `_reduced_distance`), so a k whose bound reaches the
    running minimum cannot set a record, and D[k] is not computed.  A D[k]
    that is computed, k >= 2, comes from the reduced alpha's integers as a
    pair (`_multiple_distance`) and is compared by cross-multiplication; a
    Fraction is built only at a record.  Raises DegenerateOrbitError when
    D[1] = 0: alpha is then in Gamma_P, and all orbit points coincide.
    """
    first = next(orbit(alpha, K))
    low = _reduced_distance(first, zero_point(alpha.primes))
    if low == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    a, b = first.at_infinity.numerator, first.at_infinity.denominator
    low_num, low_den = low.numerator, low.denominator
    ks, values = [1], [low]
    for k in range(2, K + 1):
        r = k * a % b
        if min(r, b - r) * low_den < low_num * b:
            num, den = _multiple_distance(first, k)
            if num and num * low_den < low_num * den:
                low_num, low_den = num, den
                ks.append(k)
                values.append(Fraction(num, den))
    return ks, values


def gap_report(alpha: AdelePoint, N: int) -> GapReport:
    """All nearest-neighbor distances, and each distinct value with its least witness.

    The quotient metric is translation-invariant, so d(n*alpha, m*alpha) =
    D[|n-m|], and delta_n is the least positive D[k] over
    1 <= k <= max(n-1, N-n): the record of `_records(alpha, N - 1)` in force
    at that radius.  Record i is in force on the radii ks[i] <= r < ends[i],
    ends = ks[1:] + [N].  With h = (N+1)//2, the radii max(n-1, N-n) are
    N-1 down to N-h for n <= h, and later n repeat radii of [N-h, N-1].  So
    the distinct gaps are the values in force there, ascending from the last
    record, and record i's least witness is the least n <= h with radius
    below ends[i]: N - ends[i] + 1.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N == 1:
        raise DegenerateOrbitError("N = 1: a single orbit point has no nearest neighbor")
    ks, values = _records(alpha, N - 1)
    ends = ks[1:] + [N]
    least = []  # least[r-1] is the record in force at radius r
    for k, end, value in zip(ks, ends, values):
        least += [value] * (end - k)
    h = (N + 1) // 2
    witnesses = {v: N - end + 1 for v, end in zip(values[::-1], ends[::-1]) if end > N - h}
    return GapReport(N, least[::-1][:h] + least[h - 1:], witnesses)
