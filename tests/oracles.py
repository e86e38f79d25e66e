"""Independent reference implementations the tests compare the package against.

None of these is used by the package itself: each computes a quantity the
package computes faster, by the definition and without its shortcuts.
"""

from fractions import Fraction
from math import ceil, floor, gcd

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    PrimeSet,
    add_diagonal,
    orbit,
    reduce,
    sub,
    torus_distance,
)
from adelic_gaps.adele import ambient_abs
from adelic_gaps.arith import padic_abs


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


def contains_all_factors(primes: PrimeSet, n: int) -> bool:
    """True iff every prime factor of the nonzero integer n lies in the set."""
    return all(p in primes for p in prime_factors(n))


def reference_ambient_abs(x: AdelePoint) -> Fraction:
    """The ambient norm, with the cofinite tail found by factoring the default.

    On a cofinite set the term at p is |x_p|_p / p.  The candidates are the
    override primes and every prime of the set dividing the default's
    numerator or denominator; at any other prime the default is a unit, so
    the least such prime q contributes 1/q and bounds all the rest.
    """
    best = abs(x.at_infinity)
    default = x.default_value
    if x.primes.finite:
        return max([best] + [padic_abs(x.coordinate(p), p) for p in x.primes.listed])
    candidates = set(x.overrides)
    if default != 0:
        factors = prime_factors(default.numerator) + prime_factors(default.denominator)
        candidates |= {p for p in factors if p in x.primes}
    best = max([best] + [padic_abs(x.coordinate(p), p) / p for p in candidates])
    if default != 0:
        q = 2
        while q in candidates or q not in x.primes:
            q += 1
        best = max(best, Fraction(1, q))
    return best


def reference_torus_distance(x: AdelePoint, y: AdelePoint) -> Fraction:
    """The quotient distance of reduced points over the shifts {-1, 0, 1}, each
    norm taken by `reference_ambient_abs`."""
    diff = sub(reduce(x)[0], reduce(y)[0])
    return min(reference_ambient_abs(add_diagonal(diff, g)) for g in (0, 1, -1))


def gamma_elements(primes: PrimeSet, height_bound: int):
    """All a/b in Gamma_P with |a| <= bound, 1 <= b <= bound, in lowest terms."""
    for b in range(1, height_bound + 1):
        if b > 1 and not contains_all_factors(primes, b):
            continue
        for a in range(-height_bound, height_bound + 1):
            if gcd(a, b) == 1:
                yield Fraction(a, b)


def brute_force_torus_distance(x: AdelePoint, y: AdelePoint, height_bound: int) -> Fraction:
    """Minimize the ambient metric over all gamma of bounded height.

    Both points are reduced first: a gamma of bounded height cannot undo an
    arbitrary offset, and on reduced points gamma in {-1, 0, 1}, always
    included even for height_bound 1, already attains the quotient distance.
    """
    diff = sub(reduce(x)[0], reduce(y)[0])
    best = min(ambient_abs(add_diagonal(diff, g)) for g in (0, 1, -1))
    for g in gamma_elements(x.primes, height_bound):
        val = ambient_abs(add_diagonal(diff, -g))
        if val < best:
            best = val
    return best


def pairwise_deltas(alpha: AdelePoint, N: int) -> list[Fraction]:
    """delta_n as the least positive entry of row n of the N x N distance matrix."""
    points = orbit(alpha, N)
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


def windowed_F(spec, t) -> Fraction:
    """F(t) by the definition: spec.t times the least spec.v_min(k) over every
    integer k of the window -t * spec.t < k < (1 - t) * spec.t, each scanned."""
    t = Fraction(t)
    n_plus = spec.t
    # strict inequalities: smallest integer > lower bound, largest < upper bound
    k_lo = floor(-t * n_plus) + 1
    k_hi = ceil((1 - t) * n_plus) - 1
    return n_plus * min(spec.v_min(k) for k in range(k_lo, k_hi + 1))
