"""Exact rational arithmetic helpers: primality, p-adic valuations and absolute values.

All scalar quantities in this package are `fractions.Fraction` instances or
integers, so every computation is exact.

Primality is decided by Miller-Rabin on a fixed set of bases, which is exact
below `PRIMALITY_LIMIT`.  Nothing here factors an integer, and a valuation v
takes O(log v) divisions by powers of p, never v divisions by p, so the cost
of every helper grows with the number of digits of its input, not with its size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

#: The first 13 primes: no composite below PRIMALITY_LIMIT is a strong
#: pseudoprime to all of them (Sorenson & Webster, "Strong pseudoprimes to
#: twelve prime bases", Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13, the least composite that passes every base above.
PRIMALITY_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, ..., 41; exact for n < PRIMALITY_LIMIT.

    The cache keeps the last 2^16 answers, so a long run of distinct inputs
    holds bounded memory.

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
    s, d = split_power(n - 1, 2)
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


def split_power(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v * m and p not dividing m, for an integer n != 0
    (ValueError for n = 0), in O(log v) big-integer divisions, not v: with
    n = p * q and q = (p*p)^w * m', p*p not dividing m', v is 2w + 1, or
    2w + 2 when p still divides m'."""
    q, r = divmod(n, p)
    if r:
        return 0, n
    if not n:
        raise ValueError("the valuation of 0 is not an integer")
    w, m = split_power(q, p * p)
    q, r = divmod(m, p)
    return (2 * w + 1, m) if r else (2 * w + 2, q)


def valuation(r: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(r) of a nonzero r; raises ValueError for r = 0.

    Writes r = p^v * (a/b) with p dividing neither a nor b and returns v.
    An int or a Fraction is read as it is, any other r through Fraction(r).
    """
    _check_prime(p)
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return split_power(r.numerator, p)[0] - split_power(r.denominator, p)[0]


def padic_abs(r: Fraction | int, p: int) -> Fraction:
    """p-adic absolute value |r|_p = p^(-v_p(r)), exactly; |0|_p = 0."""
    if r == 0:
        _check_prime(p)
        return Fraction(0)
    v = valuation(r, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)
