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
from math import ceil, floor

from .adele import AdelePoint, scale_by_integer, torus_distance, zero_point


def min_positive_diagonal_distance(x: AdelePoint) -> Fraction:
    """min{ |x - gamma| > 0 : gamma in Gamma_P }, exactly.

    Equals the torus distance to zero unless x lies on the lattice, in which
    case it is the norm of the shortest nonzero element of Gamma_P, which is
    1: a denominator divisible by some p in P gives a p-term >= 1, a nonzero
    integer has |.|_inf >= 1, and gamma = 1 has norm exactly 1.
    """
    d = torus_distance(x, zero_point(x.primes))
    return d if d > 0 else Fraction(1)


#: alpha -> {|k|: v_min(k)}.  v_min depends on alpha alone, not on N, so every
#: spec on an equal alpha shares one table; an entry lives as long as its alpha.
_V_MIN_TABLES = weakref.WeakKeyDictionary()


@dataclass
class RotationMatrixSpec:
    """Upper-triangular determinant-1 matrix with diagonal (1/t, t) and shear t*alpha.

    The gap identity for the orbit of length N uses t = N + 1/2.  The shortest
    vectors `v_min(k)` are cached in one table per alpha, which every spec on
    an equal alpha that is still alive shares.
    """

    alpha: AdelePoint
    N: int
    _v_min_cache: dict[int, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        self._v_min_cache = _V_MIN_TABLES.setdefault(self.alpha, {})

    @property
    def t(self) -> Fraction:
        return Fraction(2 * self.N + 1, 2)

    def v_min(self, k: int) -> Fraction:
        """Minimal positive |k*alpha - gamma| over Gamma_P; symmetric in +-k."""
        k = abs(k)
        if k not in self._v_min_cache:
            self._v_min_cache[k] = min_positive_diagonal_distance(
                scale_by_integer(self.alpha, k)
            )
        return self._v_min_cache[k]


@dataclass(frozen=True)
class ScanResult:
    """Piecewise-constant profile of t -> F over (0,1)."""

    breakpoints: list[Fraction]
    interval_values: list[Fraction]
    distinct_count: int


def F_value(spec: RotationMatrixSpec, t) -> Fraction:
    """Minimal |v|-norm over lattice vectors whose u-coordinate lies in (-t, 1-t).

    The p-adic window constraint restricts u-coordinates to k / spec.t with k
    an integer, so the minimum ranges over -t*spec.t < k < (1-t)*spec.t.
    k = 0 is always admissible, hence the minimum is never over an empty set.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0,1), got {t}")
    n_plus = spec.t
    # strict inequalities: smallest integer > lower bound, largest < upper bound
    k_lo = floor(-t * n_plus) + 1
    k_hi = ceil((1 - t) * n_plus) - 1
    return n_plus * min(spec.v_min(k) for k in range(k_lo, k_hi + 1))


def delta_via_lattice(alpha: AdelePoint, N: int, n: int) -> Fraction:
    """Nearest-neighbor distance computed through the lattice identity."""
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    spec = RotationMatrixSpec(alpha, N)
    return F_value(spec, n / spec.t) / spec.t


def G_N_value(spec: RotationMatrixSpec) -> int:
    """Number of distinct F values at the gap sample parameters n / (N + 1/2)."""
    return len({F_value(spec, n / spec.t) for n in range(1, spec.N + 1)})


def scan_G(spec: RotationMatrixSpec) -> ScanResult:
    """Exact piecewise-constant scan of t -> F over (0,1).

    The admissible k-set changes only when t crosses k/t0 or 1 - k/t0
    (t0 = spec.t, 1 <= k <= N), so F is constant on the open subintervals
    between those breakpoints and one interior sample per subinterval
    determines it.  Every cut lies in (0,1) because N < t0.
    """
    cuts = {k / spec.t for k in range(1, spec.N + 1)}
    breakpoints = sorted(cuts | {1 - c for c in cuts})
    edges = [Fraction(0)] + breakpoints + [Fraction(1)]
    values = [F_value(spec, (lo + hi) / 2) for lo, hi in zip(edges[:-1], edges[1:])]
    return ScanResult(breakpoints, values, len(set(values)))
