"""Independent reference implementations the tests compare the package against.

None of these is used by the package itself: each computes a quantity the
package computes faster, by the definition and without its shortcuts.  The
ambient norm of an arbitrary point, reduced or not, lives only here: the
package's kernel takes only differences of reduced points.  The
reference norm works on raw `Fraction` coordinates, with its own p-adic
valuation and trial-division primality, so the norm and distance oracles share
no point arithmetic with the package: `reduce` is the only package function
they use, to bring their inputs into the fundamental domain.  The record walk
shares the package's pair kernel, which the reference distance checks, and
nothing else with the record engine it checks.
"""

from fractions import Fraction
from math import ceil, floor, gcd

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    PrimeSet,
    reduce,
    torus_distance,
    zero_point,
)
from adelic_gaps.adele import _multiple_distance


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of the nonzero integer n, by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _has_prime(primes: PrimeSet, p: int) -> bool:
    """Membership of a p known to be prime: listed exactly when the set is finite."""
    return (p in primes.listed) == primes.finite


def _padic_abs(r: Fraction, p: int) -> Fraction:
    """|r|_p = p^-v by counting the factors p of numerator and denominator; |0|_p = 0."""
    if r == 0:
        return Fraction(0)
    num, den, v = r.numerator, r.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)


def reference_norm(inf: Fraction, default: Fraction, coords, primes: PrimeSet) -> Fraction:
    """The ambient max-metric norm of raw coordinates: `inf` at the real place,
    `coords[p]` at its keys p and `default` at every other prime of the set.

    On a cofinite set the term at p is |x_p|_p / p.  The candidates are the
    keys of `coords` and every prime of the set dividing the default's
    numerator or denominator; at any other prime the default is a unit, so
    the least such prime q contributes 1/q and bounds all the rest.
    """
    best = abs(inf)
    if primes.finite:
        return max([best] + [_padic_abs(coords.get(p, default), p) for p in primes.listed])
    candidates = set(coords)
    if default != 0:
        factors = prime_factors(default.numerator) + prime_factors(default.denominator)
        candidates |= {p for p in factors if _has_prime(primes, p)}
    best = max([best] + [_padic_abs(coords.get(p, default), p) / p for p in candidates])
    if default != 0:
        q = 2
        while q in candidates or prime_factors(q) != [q] or not _has_prime(primes, q):
            q += 1
        best = max(best, Fraction(1, q))
    return best


def reference_shifted_norm(x: AdelePoint, k: int, j: int) -> Fraction:
    """The ambient norm of k * x - j, for integers k and j, by `reference_norm`."""
    return reference_norm(k * x.at_infinity - j, k * x.default_value - j,
                          {p: k * v - j for p, v in x.overrides.items()}, x.primes)


def reference_ambient_abs(x: AdelePoint) -> Fraction:
    """The ambient norm of a point, by `reference_norm` on its coordinates."""
    return reference_norm(x.at_infinity, x.default_value, x.overrides, x.primes)


def _reduced_difference(x: AdelePoint, y: AdelePoint):
    """xbar - ybar of the reduced points as raw coordinates (inf, default, coords)."""
    xbar, ybar = reduce(x)[0], reduce(y)[0]
    coords = {
        p: xbar.overrides.get(p, xbar.default_value) - ybar.overrides.get(p, ybar.default_value)
        for p in {*xbar.overrides, *ybar.overrides}
    }
    return xbar.at_infinity - ybar.at_infinity, xbar.default_value - ybar.default_value, coords


def _shifted_norm(difference, gamma, primes: PrimeSet) -> Fraction:
    """The norm of the difference minus the diagonal gamma; the primes of gamma's
    denominator join the explicit coordinates."""
    inf, default, coords = difference
    shifted = {p: v - gamma for p, v in coords.items()}
    for p in prime_factors(gamma.denominator):
        shifted.setdefault(p, default - gamma)
    return reference_norm(inf - gamma, default - gamma, shifted, primes)


def reference_torus_distance(x: AdelePoint, y: AdelePoint) -> Fraction:
    """The quotient distance of the reduced points over the shifts {-1, 0, 1}."""
    difference = _reduced_difference(x, y)
    return min(_shifted_norm(difference, g, x.primes) for g in (-1, 0, 1))


def gamma_elements(primes: PrimeSet, height_bound: int):
    """All a/b in Gamma_P with |a| <= bound, 1 <= b <= bound, in lowest terms."""
    for b in range(1, height_bound + 1):
        if not all(_has_prime(primes, p) for p in prime_factors(b)):
            continue
        for a in range(-height_bound, height_bound + 1):
            if gcd(a, b) == 1:
                yield Fraction(a, b)


def brute_force_torus_distance(x: AdelePoint, y: AdelePoint, height_bound: int) -> Fraction:
    """Minimize the ambient metric over all gamma of bounded height.

    Both points are reduced first: a gamma of bounded height cannot undo an
    arbitrary offset, and on reduced points gamma in {-1, 0, 1}, always
    included even for height_bound 1, already attains the quotient distance.
    A gamma whose real term |D_inf - gamma| already reaches the best norm is
    skipped, which is exact: the norm is a max that includes that term.
    """
    difference = _reduced_difference(x, y)
    best = min(_shifted_norm(difference, g, x.primes) for g in (-1, 0, 1))
    for g in gamma_elements(x.primes, height_bound):
        if abs(difference[0] - g) < best:
            best = min(best, _shifted_norm(difference, g, x.primes))
    return best


def multiple(x: AdelePoint, k: int) -> AdelePoint:
    """The point k * x, through the validated constructor."""
    return AdelePoint(k * x.at_infinity, k * x.default_value,
                      {p: k * v for p, v in x.overrides.items()}, x.primes)


def point_sum(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    """The point x + y, coordinate by coordinate, through the validated constructor."""
    coords = {
        p: x.overrides.get(p, x.default_value) + y.overrides.get(p, y.default_value)
        for p in {*x.overrides, *y.overrides}
    }
    return AdelePoint(x.at_infinity + y.at_infinity, x.default_value + y.default_value,
                      coords, x.primes)


def point_difference(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    """The point x - y, through the validated constructor."""
    return point_sum(x, multiple(y, -1))


def reduced_multiples(alpha: AdelePoint, K: int) -> list[AdelePoint]:
    """The reduced k * alpha for 1 <= k <= K, each reduced on its own."""
    return [reduce(multiple(alpha, k))[0] for k in range(1, K + 1)]


def pairwise_deltas(alpha: AdelePoint, N: int) -> list[Fraction]:
    """delta_n as the least positive entry of row n of the N x N distance matrix."""
    points = reduced_multiples(alpha, N)
    matrix = [[Fraction(0)] * N for _ in range(N)]
    for i in range(N):
        for j in range(i + 1, N):
            matrix[i][j] = matrix[j][i] = torus_distance(points[i], points[j])
    deltas = []
    for row in matrix:
        positive = [d for d in row if d > 0]
        if not positive:
            raise DegenerateOrbitError("degenerate orbit: no positive distance in a row")
        deltas.append(min(positive))
    return deltas


def least_positive_prefix(alpha: AdelePoint, K: int) -> list[Fraction]:
    """least[k-1] = least positive D[j] = d(j*alpha, 0) over 1 <= j <= k, for
    1 <= k <= K, with every D[j] computed: the walk without the real-bound skip."""
    zero = zero_point(alpha.primes)
    diffs = [torus_distance(x, zero) for x in reduced_multiples(alpha, K)]
    if not diffs or diffs[0] == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    least = []
    low = diffs[0]
    for d in diffs:
        if 0 < d < low:
            low = d
        least.append(low)
    return least


def record_walk(alpha: AdelePoint, K: int) -> tuple[list[int], list[Fraction]]:
    """The records of D[k] = d(k*alpha, 0) over 1 <= k <= K, as (ks, values), by
    the O(K) prefix-minimum walk: the oracle of the record engine.

    D[1] is the torus distance of the reduced alpha to 0, and each later D[k]
    comes from the reduced alpha's integers by the package's pair kernel
    (`adele._multiple_distance`, checked on its own against the reference
    distance), except at a k whose real bound ||k * abar_inf|| reaches the
    running minimum: D[k] is at least that bound, so such a k cannot set a
    record.  Record positions come from this scan, not from the engine's
    congruences and convergent walks.
    """
    first = reduce(alpha)[0]
    low = torus_distance(first, zero_point(alpha.primes))
    if low == 0:
        raise DegenerateOrbitError(
            "degenerate orbit: all orbit points coincide, no positive distance"
        )
    a, b = first.at_infinity.numerator, first.at_infinity.denominator
    ks, values = [1], [low]
    for k in range(2, K + 1):
        r = k * a % b
        if min(r, b - r) * low.denominator < low.numerator * b:
            num, den = _multiple_distance(first, k)
            if num and num * low.denominator < low.numerator * den:
                low = Fraction(num, den)
                ks.append(k)
                values.append(low)
    return ks, values


def prefix_min_deltas(alpha: AdelePoint, N: int) -> list[Fraction]:
    """delta_n as the least positive D[k] over 1 <= k <= max(n-1, N-n), from
    `least_positive_prefix`."""
    least = least_positive_prefix(alpha, N - 1)
    return [least[max(n - 1, N - n) - 1] for n in range(1, N + 1)]


def expanded(runs) -> list:
    """The values of `runs`, pairs (value, count), each repeated its count of
    times, in order: delta_1, ..., delta_N from `GapReport.runs`, or one F per
    interval from `ScanResult.runs`."""
    return [value for value, count in runs for _ in range(count)]


def real_bound(alpha: AdelePoint, k: int) -> Fraction:
    """||k * abar_inf||: the distance from k times the reduced real coordinate
    to the nearest integer, which d(k*alpha, 0) is at least."""
    x = k * reduce(alpha)[0].at_infinity
    frac = x - floor(x)
    return min(frac, 1 - frac)


def prefix_minima_and_drops(values) -> tuple[list, list[int]]:
    """The prefix minima of `values` and, at each index, how often they fell so far."""
    minima, drops = [], []
    for v in values:
        if minima and v >= minima[-1]:
            minima.append(minima[-1])
            drops.append(drops[-1])
        else:
            drops.append(drops[-1] + 1 if minima else 0)
            minima.append(v)
    return minima, drops


def windowed_F(spec, t, v_min) -> Fraction:
    """F(t) by the definition: spec.t times the least v_min(k) over every integer
    k of the window -t * spec.t < k < (1 - t) * spec.t, each scanned.  `v_min`
    holds spec.v_min(k) at 0 <= k <= spec.N, computed once per spec by the
    caller; v_min(k) = v_min(-k), and the window lies in |k| <= spec.N."""
    t = Fraction(t)
    n_plus = spec.t
    # strict inequalities: smallest integer > lower bound, largest < upper bound
    k_lo = floor(-t * n_plus) + 1
    k_hi = ceil((1 - t) * n_plus) - 1
    return n_plus * min(v_min[abs(k)] for k in range(k_lo, k_hi + 1))
