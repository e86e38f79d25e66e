"""Rotation orbits on the adelic torus and their nearest-neighbor gap statistics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .adele import AdelePoint, TorusPoint, _reduced_distance, reduce, zero_point


class DegenerateOrbitError(ValueError):
    """Raised when no orbit point has a nearest neighbor at positive distance, so
    no gap is defined: every pairwise distance is zero, or N = 1."""


@dataclass(frozen=True)
class GapReport:
    """Nearest-neighbor distances of one (alpha, N) instance."""

    N: int
    deltas: list[Fraction]  # deltas[n-1] is the distance for the n-th orbit point
    distinct_gaps: list[Fraction]  # sorted, duplicate-free
    gap_count: int
    witnesses: dict[Fraction, int]  # gap value -> the least index n attaining it, ascending


def orbit(alpha: AdelePoint, N: int) -> list[TorusPoint]:
    """The reduced points n*alpha for 1 <= n <= N.

    Only alpha itself goes through `reduce`.  The fundamental domain
    [0,1) x prod Z_p holds one point of each coset, so the reduced (n+1)*alpha
    is the reduced n*alpha plus the reduced alpha, less 1 in every coordinate
    once the coordinate at infinity reaches 1.  Each coordinate of the n-th
    point is therefore (n*a - m*b)/b, where a/b is that coordinate of the
    reduced alpha and m counts the wraps so far; the steps are integer sums,
    and each point is built without re-validation, since a sum of two points
    of the domain, shifted back into [0,1) at infinity, lies in the domain.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    first, _ = reduce(alpha)
    keys = list(first.overrides)
    steps = [(c.numerator, c.denominator)
             for c in (first.at_infinity, first.default_value, *first.overrides.values())]
    inf_den = steps[0][1]
    nums = [a for a, _ in steps]
    points = [first]
    for _ in range(N - 1):
        nums = [n + a for n, (a, _) in zip(nums, steps)]
        if nums[0] >= inf_den:
            nums = [n - b for n, (_, b) in zip(nums, steps)]
        inf, default, *values = [Fraction(n, b) for n, (_, b) in zip(nums, steps)]
        points.append(TorusPoint._trusted(inf, default, dict(zip(keys, values)), alpha.primes))
    return points


def _deltas(alpha: AdelePoint, N: int) -> list[Fraction]:
    """deltas[n-1] = least positive d(n*alpha, m*alpha) over 1 <= m <= N.

    The quotient metric is translation-invariant, so d(n*alpha, m*alpha) =
    D[|n-m|] with D[k] = d(k*alpha, 0), and delta_n is the least positive
    D[k] over 1 <= k <= max(n-1, N-n): a prefix minimum over N - 1 values.
    D[k] is at least the real bound min(a, b - a)/b of the reduced k*alpha,
    whose real coordinate is a/b (see `_reduced_distance`), so a k whose bound
    reaches the running minimum L cannot lower it: L is kept and D[k] is not
    computed.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N == 1:
        raise DegenerateOrbitError("N = 1: a single orbit point has no nearest neighbor")
    points = orbit(alpha, N - 1)
    zero = zero_point(alpha.primes)
    low = _reduced_distance(points[0], zero)
    # k = 1 lies in every window, so the orbit is degenerate exactly when D[1]
    # is zero (alpha in Gamma_P)
    if low == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    least = [low]  # least[k-1] = least positive D[j] over j <= k
    for x in islice(points, 1, None):
        a, b = x.at_infinity.numerator, x.at_infinity.denominator
        if min(a, b - a) * low.denominator < low.numerator * b:
            d = _reduced_distance(x, zero)
            if 0 < d < low:
                low = d
        least.append(low)
    return [least[max(n - 1, N - n) - 1] for n in range(1, N + 1)]


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
        if not distinct or d != distinct[-1]:
            distinct.append(d)
            witnesses[d] = n
    return GapReport(N, deltas, distinct, len(distinct), witnesses)

