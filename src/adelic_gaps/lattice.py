"""Lattice-space reformulation of the gap computation.

The shear-and-dilate matrices with parameter t = N + 1/2 turn each
nearest-neighbor distance into the minimal |v|-norm of a lattice vector whose
u-coordinate falls in a moving unit window.  For these matrices the p-adic
constraints collapse the candidate u-coordinates to integers k with |k| <= N,
so everything is a finite exact scan.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .adele import AdelePoint, TorusPoint, reduce, torus_distance, zero_point


def min_positive_diagonal_distance(x: AdelePoint) -> Fraction:
    """min{ |x - gamma| > 0 : gamma in Gamma_P }, exactly.

    Equals the torus distance to zero unless x lies on the lattice, in which
    case it is the norm of the shortest nonzero element of Gamma_P, which is
    1: a denominator divisible by some p in P gives a p-term >= 1, a nonzero
    integer has |.|_inf >= 1, and gamma = 1 has norm exactly 1.
    """
    d = torus_distance(x, zero_point(x.primes))
    return d if d > 0 else Fraction(1)


#: alpha -> ({|k|: v_min(k)}, M, drops, reduced alpha) with M[K] = min of
#: v_min(k) over 0 <= k <= K and drops[K] the number of K' <= K with
#: M[K'] < M[K' - 1], both filled upward in K.  M is nonincreasing, so
#: M[K] = M[K'] exactly when drops[K] = drops[K'].  All four depend on alpha
#: alone, not on N, so every spec on an equal alpha shares one entry; an entry
#: lives as long as its alpha.
_V_MIN_TABLES = weakref.WeakKeyDictionary()


@dataclass
class RotationMatrixSpec:
    """Upper-triangular determinant-1 matrix with diagonal (1/t, t) and shear t*alpha.

    The gap identity for the orbit of length N uses t = N + 1/2, set once as
    the attribute `t`.  The shortest vectors `v_min(k)`, their prefix minima,
    the drop counts of those minima and the reduced alpha they are computed
    from are kept in one table per alpha, which every spec on an equal alpha
    that is still alive shares; alpha is reduced once, when its table is made.
    """

    alpha: AdelePoint
    N: int
    t: Fraction = field(init=False, repr=False, compare=False)
    _v_min_cache: dict[int, Fraction] = field(init=False, repr=False, compare=False)
    _prefix_min: list[Fraction] = field(init=False, repr=False, compare=False)
    _drops: list[int] = field(init=False, repr=False, compare=False)
    _alpha_bar: TorusPoint = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        self.t = Fraction(2 * self.N + 1, 2)
        entry = _V_MIN_TABLES.get(self.alpha)
        if entry is None:
            entry = _V_MIN_TABLES[self.alpha] = ({}, [], [], reduce(self.alpha)[0])
        self._v_min_cache, self._prefix_min, self._drops, self._alpha_bar = entry

    def v_min(self, k: int) -> Fraction:
        """Minimal positive |k*alpha - gamma| over Gamma_P; symmetric in +-k.

        The distance is taken at the reduced k*alpha, built in closed form
        from the reduced alpha: each coordinate a/b becomes (k*a - m*b)/b with
        m = floor(k * a_inf / b_inf) from the real coordinate.  With
        alpha = reduced alpha + gamma, that is k*alpha less the diagonal
        element k*gamma + m, and it lies in [0,1) x prod Z_p (k times a
        p-adic integer is one, and m is in Z), so it is built without
        re-validation.  It does not use the wrap count `orbit` keeps, so
        `lattice-check` still compares two independent constructions.
        """
        k = abs(k)
        cache = self._v_min_cache
        if k not in cache:
            xbar = self._alpha_bar
            inf = xbar.at_infinity
            m = k * inf.numerator // inf.denominator

            def multiple(c: Fraction) -> Fraction:
                return Fraction(k * c.numerator - m * c.denominator, c.denominator)

            point = TorusPoint._trusted(
                multiple(inf), multiple(xbar.default_value),
                {p: multiple(v) for p, v in xbar.overrides.items()}, xbar.primes,
            )
            cache[k] = min_positive_diagonal_distance(point)
        return cache[k]

    def _fill(self, K: int) -> None:
        """Grow the prefix minima and drop counts of the table through radius K.

        With a/b the real coordinate of the reduced alpha, the reduced k*alpha
        has real coordinate r/b, r = k*a mod b, so v_min(k) is at least
        min(r, b - r)/b when k*alpha is off the lattice (see
        `_reduced_distance`), and 1 when it is on it, which no prefix minimum
        exceeds, since v_min(0) = 1.  A k whose bound reaches the last minimum
        cannot lower it, so v_min(k) is not computed for it.
        """
        prefix, drops = self._prefix_min, self._drops
        if not prefix:
            prefix.append(self.v_min(0))
            drops.append(0)
        inf = self._alpha_bar.at_infinity
        a, b = inf.numerator, inf.denominator
        while len(prefix) <= K:
            k, low = len(prefix), prefix[-1]
            r = k * a % b
            if min(r, b - r) * low.denominator < low.numerator * b:
                v = self.v_min(k)
                if v < low:
                    prefix.append(v)
                    drops.append(drops[-1] + 1)
                    continue
            prefix.append(low)
            drops.append(drops[-1])


@dataclass(frozen=True)
class ScanResult:
    """Piecewise-constant profile of t -> F over (0,1)."""

    breakpoints: list[Fraction]
    interval_values: list[Fraction]
    distinct_count: int


def _radius(m: int, a: int, b: int) -> int:
    """K = max(-k_lo, k_hi) for t = a/b (b > 0) and spec.t = m/2, m = 2N + 1.

    k_lo..k_hi are the integers k with -t*m/2 < k < (1-t)*m/2: the smallest
    integer above -a*m/(2b) and the largest below (b-a)*m/(2b).  Raises
    ValueError unless 0 < t < 1.
    """
    if not 0 < a < b:
        raise ValueError(f"t must lie in (0,1), got {Fraction(a, b)}")
    k_lo = (-a * m) // (2 * b) + 1
    k_hi = -((-(b - a) * m) // (2 * b)) - 1
    return max(-k_lo, k_hi)


def F_value(spec: RotationMatrixSpec, t) -> Fraction:
    """Minimal |v|-norm over lattice vectors whose u-coordinate lies in (-t, 1-t).

    The p-adic window constraint restricts u-coordinates to k / spec.t with k
    an integer, so the minimum ranges over -t*spec.t < k < (1-t)*spec.t.
    The window always contains k = 0 and v_min is symmetric in +-k, so the
    minimum is spec.t times the prefix minimum of v_min over
    |k| <= max(-k_lo, k_hi).
    """
    t = Fraction(t)
    K = _radius(2 * spec.N + 1, t.numerator, t.denominator)
    spec._fill(K)
    return spec.t * spec._prefix_min[K]


def delta_via_lattice(alpha: AdelePoint, N: int, n: int) -> Fraction:
    """Nearest-neighbor distance computed through the lattice identity.

    It is F_value(spec, n / spec.t) / spec.t with spec.t = N + 1/2, that is
    the prefix minimum of v_min at the window radius max(n - 1, N - n), which
    is read from the table directly, with no product and no division.
    """
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    spec = RotationMatrixSpec(alpha, N)
    m = 2 * N + 1
    K = _radius(m, 2 * n, m)
    spec._fill(K)
    return spec._prefix_min[K]


def G_N_value(spec: RotationMatrixSpec) -> int:
    """Number of distinct F values at the gap sample parameters n / (N + 1/2).

    F is spec.t times the prefix minimum M at the sample's window radius, and
    M is nonincreasing, so the distinct F values are counted as the distinct
    drop counts of M at those radii; no F value is built.
    """
    m = 2 * spec.N + 1
    radii = [_radius(m, 2 * n, m) for n in range(1, spec.N + 1)]
    spec._fill(max(radii))
    drops = spec._drops
    return len({drops[K] for K in radii})


def scan_G(spec: RotationMatrixSpec) -> ScanResult:
    """Exact piecewise-constant scan of t -> F over (0,1).

    The admissible k-set changes only when t crosses k/t0 or 1 - k/t0
    (t0 = spec.t = m/2 with m = 2N + 1, 1 <= k <= N), so F is constant on the
    open subintervals between those breakpoints and one interior sample per
    subinterval determines it.  The cuts 2k/m and (m - 2k)/m are together
    every j/m with 0 < j < m, so the breakpoints are those and the midpoints
    are (2j + 1)/(2m), 0 <= j < m.  Two midpoints have equal F exactly when
    the prefix minimum has dropped equally often at their window radii, so
    `distinct_count` counts drop counts, and F_value runs once per distinct
    drop count, at its first midpoint.
    """
    m = 2 * spec.N + 1
    breakpoints = [Fraction(j, m) for j in range(1, m)]
    radii = [_radius(m, 2 * j + 1, 2 * m) for j in range(m)]
    spec._fill(max(radii))
    counts = [spec._drops[K] for K in radii]
    value = {}
    for j, c in enumerate(counts):
        if c not in value:
            value[c] = F_value(spec, Fraction(2 * j + 1, 2 * m))
    return ScanResult(breakpoints, [value[c] for c in counts], len(value))
