import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adelic_gaps.arith import (
    PRIMALITY_LIMIT,
    is_prime,
    next_prime,
    padic_abs,
    valuation,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def test_valuation_examples():
    assert valuation(Fraction(351, 100), 2) == -2
    assert valuation(Fraction(0), 7) == math.inf
    assert valuation(Fraction(16, 5), 3) == 0


def test_valuation_rejects_non_prime():
    with pytest.raises(ValueError, match="invalid prime"):
        valuation(Fraction(1, 2), 4)
    with pytest.raises(ValueError, match="invalid prime"):
        padic_abs(Fraction(1), 91)


def test_padic_abs_examples():
    assert padic_abs(Fraction(351, 100), 2) == 4
    for p in (2, 3, 5, 97):
        assert padic_abs(Fraction(1), p) == 1
    assert padic_abs(Fraction(-128), 2) == Fraction(1, 128)
    assert padic_abs(Fraction(0), 5) == 0


def test_is_prime_small():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(91)  # 7 * 13
    primes_below_50 = [n for n in range(50) if is_prime(n)]
    assert primes_below_50 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(2 * 10**5) if is_prime(n) != by_trial_division(n)] == []
    is_prime.cache_clear()


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # to the bases 2, ..., 31
    psi_12 = 318665857834031151167461  # to the bases 2, ..., 37
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_from_psi_13():
    assert PRIMALITY_LIMIT == 3317044064679887385961981
    assert not is_prime(PRIMALITY_LIMIT - 1)  # even
    for n in (PRIMALITY_LIMIT, 10**30 + 57):
        with pytest.raises(ValueError, match="primality"):
            is_prime(n)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17


@given(rationals, rationals, small_primes)
def test_padic_abs_multiplicative(r, s, p):
    assert padic_abs(r * s, p) == padic_abs(r, p) * padic_abs(s, p)


@given(rationals, rationals, small_primes)
def test_strong_triangle_inequality(r, s, p):
    lhs = padic_abs(r + s, p)
    a, b = padic_abs(r, p), padic_abs(s, p)
    assert lhs <= max(a, b)
    if a != b:
        assert lhs == max(a, b)


@given(rationals.filter(lambda r: r != 0))
def test_product_formula(r):
    product = abs(r)
    n = abs(r.numerator) * r.denominator
    d = 2
    while d * d <= n:
        if n % d == 0:
            product *= padic_abs(r, d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        product *= padic_abs(r, n)
    assert product == 1


@given(rationals, rationals)
def test_canonical_form_closure(r, s):
    # Fraction keeps gcd(|num|, den) = 1 and den > 0 through arithmetic
    for value in (r + s, r - s, r * s):
        assert value.denominator > 0
        assert math.gcd(abs(value.numerator), value.denominator) == 1
