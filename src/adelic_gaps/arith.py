"""Exact rational arithmetic helpers: primality, p-adic valuations and absolute values.

All scalar quantities in this package are `fractions.Fraction` instances or
integers, so every computation is exact.  The one float is `math.inf`, which
`valuation` returns for v_p(0) = +infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Sentinel for the valuation of zero (v_p(0) = +infinity by convention).
INFINITE_VALUATION = math.inf


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; inputs here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"invalid prime: {p}")


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


def valuation(r: Fraction | int, p: int) -> int | float:
    """p-adic valuation v_p(r), with v_p(0) = +infinity.

    Writes r = p^v * (a/b) with p dividing neither a nor b and returns v.
    """
    _check_prime(p)
    r = Fraction(r)
    if r == 0:
        return INFINITE_VALUATION
    return int_valuation(r.numerator, p) - int_valuation(r.denominator, p)


def padic_abs(r: Fraction | int, p: int) -> Fraction:
    """p-adic absolute value |r|_p = p^(-v_p(r)), exactly; |0|_p = 0."""
    v = valuation(r, p)
    if v is INFINITE_VALUATION:
        return Fraction(0)
    return Fraction(p) ** (-v)


def archimedean_abs(r: Fraction | int) -> Fraction:
    """The usual absolute value at the infinite place."""
    return abs(Fraction(r))
