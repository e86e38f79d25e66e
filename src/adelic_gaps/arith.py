"""Exact rational arithmetic helpers: primality, p-adic valuations and absolute values.

All scalar quantities in this package are `fractions.Fraction` instances or
integers, so every computation is exact.  The one float is `math.inf`, which
`valuation` returns for v_p(0) = +infinity.

Primality is decided by Miller-Rabin on a fixed set of bases, which is exact
below `PRIMALITY_LIMIT`; nothing here factors an integer, so the cost of every
helper grows with the number of digits of its input, not with its size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Sentinel for the valuation of zero (v_p(0) = +infinity by convention).
INFINITE_VALUATION = math.inf


#: The first 13 primes: no composite below PRIMALITY_LIMIT is a strong
#: pseudoprime to all of them (Sorenson & Webster, "Strong pseudoprimes to
#: twelve prime bases", Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13, the least composite that passes every base above.
PRIMALITY_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, ..., 41; exact for n < PRIMALITY_LIMIT.

    Raises ValueError for n >= PRIMALITY_LIMIT, where these bases no longer
    decide primality.
    """
    if n >= PRIMALITY_LIMIT:
        raise ValueError(
            f"primality of {n} is not decided: integers must be below {PRIMALITY_LIMIT}"
        )
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
