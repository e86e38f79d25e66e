"""Lattice-space reformulation of the gap computation.

The shear-and-dilate matrices with parameter t = N + 1/2 turn each
nearest-neighbor distance into the minimal |v|-norm of a lattice vector whose
u-coordinate falls in a moving unit window.  For these matrices the p-adic
constraints collapse the candidate u-coordinates to integers k with |k| <= N,
so everything is a finite exact scan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

from .adele import AdelePoint, TorusPoint, _fraction, _raw_abs, reduce, torus_distance, zero_point
from .torus_gaps import record_runs


def min_positive_diagonal_distance(x: AdelePoint) -> Fraction:
    """min{ |x - gamma| > 0 : gamma in Gamma_P }, exactly.

    Equals the torus distance to zero unless x lies on the lattice, in which
    case it is the norm of the shortest nonzero element of Gamma_P, which is
    1: a denominator divisible by some p in P gives a p-term >= 1, a nonzero
    integer has |.|_inf >= 1, and gamma = 1 has norm exactly 1.
    """
    d = torus_distance(x, zero_point(x.primes))
    return d if d > 0 else Fraction(1)


@dataclass
class RotationMatrixSpec:
    """Upper-triangular determinant-1 matrix with diagonal (1/t, t) and shear t*alpha.

    The gap identity for the orbit of length N uses t = N + 1/2, the property
    `t`.  The prefix minima M[K] = min of `v_min(k)` over 0 <= k <= K are kept
    as a table in the form of `GapReport.records`, filled upward through the
    radius `through`: ks = [0, k_1, ...] are the radii at which M drops and
    values = [1, M[k_1], ...] its value at each, starting from
    M[0] = v_min(0) = 1, so the table holds O(drops) items, not one per
    radius.  M[K] = values[i] for the last i with ks[i] <= K, i being the
    drop count of K (`drop_count`); M is nonincreasing, so M[K] = M[K']
    exactly when K and K' have one drop count.  The table depends on alpha
    alone, not on N, so it is kept on the alpha object,
    outside its fields, and every spec on that object shares it; it is dropped
    with the object.  The reduced alpha it is computed from lives on the spec,
    made by `reduce` when the spec first grows the table or calls `v_min`: a
    spec that only reads the table reduces nothing, and a reduced alpha, such
    as the one `lattice-check` passes, is its own reduction.  The drops are
    found on the integer kernel, and each value at a drop comes from `v_min`.
    """

    alpha: AdelePoint
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        # a new table holds v_min(0) = 1, the norm of the shortest nonzero element of Gamma_P
        self._table = (attrs := vars(self.alpha)).get("_v_min_table") or attrs.setdefault(
            "_v_min_table", SimpleNamespace(ks=[0], values=[Fraction(1)], through=0))

    @property
    def t(self) -> Fraction:
        return Fraction(2 * self.N + 1, 2)

    @cached_property
    def _alpha_bar(self) -> TorusPoint:
        return reduce(self.alpha)[0]

    def v_min(self, k: int) -> Fraction:
        """Minimal positive |k*alpha - gamma| over Gamma_P; symmetric in +-k.

        The distance is taken at the reduced k*alpha, which the reduced alpha
        builds in closed form (`TorusPoint._multiple`), the construction
        `orbit` uses too, through `min_positive_diagonal_distance` and
        `torus_distance`.  The value is computed on every call; `_fill` calls
        it only at the k where the prefix minimum drops.
        """
        return min_positive_diagonal_distance(self._alpha_bar._multiple(abs(k)))

    def drop_count(self, K: int) -> int:
        """The number of drops of the prefix minimum M over radii 1..K, filling
        the table through K: the index of M[K] in the table's values, found by
        bisecting its drop radii.  Two radii with equal drop counts have one M."""
        self._fill(K)
        return bisect_right(self._table.ks, K) - 1

    def _fill(self, K: int) -> None:
        """Grow the table through radius K, adding a radius and a value at each drop.

        The last minimum L is at most 1, since v_min(0) = 1, so v_min(k) < L
        exactly when some integer j has 0 < |k*alpha - j| < L: any other
        element of Gamma_P has a term of at least 1 (see `_reduced_distance`).
        With a/b the real coordinate of the reduced alpha and k*a = m*b + r,
        the real term is r/b at j = m, (b - r)/b at j = m + 1 and at least 1
        at any other j.  So the walk asks `_raw_abs`, with L as the bound,
        for the norm of k*alpha - j only at the j whose real term is below L,
        m first, and the norm stops at the first place whose term reaches L.
        Once L <= 1/b, a k that is not a multiple of b has r and b - r at
        least 1, so neither real term is below L: the walk steps from there
        to the next multiple of b.  Only at a drop is `v_min(k)` computed, and
        its value is the one kept, so the table's values come from the point
        path.
        """
        table = self._table
        if table.through >= K:
            return
        xbar = self._alpha_bar
        x, primes = xbar._pairs, xbar.primes
        a, b = x[0]
        low_num, low_den = table.values[-1].numerator, table.values[-1].denominator
        k = table.through
        # one step, or to the next multiple of b (b - k % b) once L <= 1/b
        while (k := k + (1 if low_num * b > low_den else b - k % b)) <= K:
            m, r = divmod(k * a, b)
            for j, real in ((m, r), (m + 1, b - r)):
                if real * low_den < low_num * b:
                    num, den = _raw_abs(x, primes, k, j, (low_num, low_den))
                    if 0 < num and num * low_den < low_num * den:
                        v = self.v_min(k)
                        table.ks.append(k)
                        table.values.append(v)
                        low_num, low_den = v.numerator, v.denominator
                        break
        table.through = K


@dataclass(frozen=True)
class ScanResult:
    """Piecewise-constant profile of t -> F over (0,1), one F per open interval
    between the breakpoints j/(2N + 1), as runs (F, count) in t order:
    O(drops) of them."""

    runs: list[tuple[Fraction, int]]
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
    minimum is spec.t times the prefix minimum M[K] of v_min over
    |k| <= K = max(-k_lo, k_hi), the table's value at the drop count of K.
    """
    t = _fraction(t)
    K = _radius(2 * spec.N + 1, t.numerator, t.denominator)
    return spec.t * spec._table.values[spec.drop_count(K)]


def delta_via_lattice(alpha: AdelePoint, N: int, n: int) -> Fraction:
    """Nearest-neighbor distance computed through the lattice identity.

    It is F_value(spec, n / spec.t) / spec.t with spec.t = N + 1/2, that is
    the prefix minimum M[K] of v_min at the window radius of t = n / spec.t,
    which in closed form is K = max(n - 1, N - n); it is read from the table,
    at the drop count of K, with no product and no division.  delta_n and
    delta_{N+1-n} share their radius, so they are one lookup.
    """
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    spec = RotationMatrixSpec(alpha, N)
    return spec._table.values[spec.drop_count(max(n - 1, N - n))]


def G_N_value(spec: RotationMatrixSpec) -> int:
    """Number of distinct F values at the gap sample parameters n / (N + 1/2).

    F is spec.t times the prefix minimum M at the sample's window radius
    K = max(n - 1, N - n), and M is nonincreasing, so the distinct F values
    are counted as the distinct drop counts of M at those radii; no F value
    is built.  The radii are every K from N // 2 to N - 1, and the drop count
    rises by at most 1 per radius, so the count is the rise over that range
    plus one.
    """
    return spec.drop_count(spec.N - 1) - spec.drop_count(spec.N // 2) + 1


def scan_G(spec: RotationMatrixSpec) -> ScanResult:
    """Exact piecewise-constant scan of t -> F over (0,1), as runs.

    The admissible k-set changes only when t crosses k/t0 or 1 - k/t0
    (t0 = spec.t = m/2 with m = 2N + 1, 1 <= k <= N), so F is constant on the
    open subintervals between those breakpoints and one interior sample per
    subinterval determines it.  The cuts 2k/m and (m - 2k)/m are together
    every j/m with 0 < j < m, so the breakpoints are those and the midpoints
    are (2j + 1)/(2m), 0 <= j < m, whose window radius is, in closed form,
    K_j = max(j // 2, N - ceil(j / 2)) = max(j, 2N - j) // 2.  Now
    max(j, 2N - j) is the radius max(n - 1, m - n) of delta_n, n = j + 1, for
    m points, and K_j >= k exactly when max(j, 2N - j) >= 2k.  So the prefix
    minimum M[K_j] is the record in force at that radius among the table's
    drops through N with their radii doubled, and the midpoints' profile is
    `record_runs` on those doubled radii and m: O(drops) runs, with no list
    over j, each run's value read as its drop count.  Each distinct drop
    count is one distinct F, since F = spec.t * M, so `distinct_count` counts
    the drop counts in the runs, and F_value runs once per distinct drop
    count, at its first midpoint, in t order.
    """
    N, m = spec.N, 2 * spec.N + 1
    spec._fill(N)  # K_0 = N, the largest radius
    ks, F, j, runs = spec._table.ks, {}, 0, []
    for drops, count in record_runs([2 * k for k in ks if k <= N], range(len(ks)), m):
        if drops not in F:  # j is its first midpoint
            F[drops] = F_value(spec, Fraction(2 * j + 1, 2 * m))
        runs.append((F[drops], count))
        j += count
    return ScanResult(runs, len(F))
