import math
import random
from fractions import Fraction

import pytest

from conftest import within_seconds
from oracles import _padic_abs

from adelic_gaps.arith import (
    PRIMALITY_LIMIT,
    is_prime,
    next_prime,
    padic_abs,
    split_power,
    valuation,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def edge_rationals(p):
    """0, +-1, +-p^k and +-1/p^k for k = 1, 2, 5."""
    edges = [Fraction(0), Fraction(1)]
    for k in (1, 2, 5):
        edges += [Fraction(p**k), Fraction(1, p**k)]
    return edges + [-r for r in edges[1:]]


def random_rational(rng):
    """A seeded rational with |r| <= 10^6 and denominator at most 10^4."""
    den = rng.randint(1, 10**4)
    return Fraction(rng.randint(-10**6 * den, 10**6 * den), den)


def rational_draws(seed, count=1000):
    """The edge values at every small prime, then `count` seeded rationals."""
    rng = random.Random(seed)
    edges = {r for p in SMALL_PRIMES for r in edge_rationals(p)}
    return sorted(edges) + [random_rational(rng) for _ in range(count)]


def pair_draws(seed, count=1000):
    """(r, s, p): every pair of p's edge values at each small prime p, then
    `count` seeded pairs at a seeded small prime, each also as (r, -r, p)."""
    rng = random.Random(seed)
    draws = [(r, s, p) for p in SMALL_PRIMES for r in edge_rationals(p) for s in edge_rationals(p)]
    for _ in range(count):
        r, s, p = random_rational(rng), random_rational(rng), rng.choice(SMALL_PRIMES)
        draws += [(r, s, p), (r, -r, p)]
    return draws


def test_valuation_examples():
    assert valuation(Fraction(351, 100), 2) == -2
    with pytest.raises(ValueError, match="valuation of 0"):
        valuation(Fraction(0), 7)
    assert valuation(Fraction(16, 5), 3) == 0


def test_valuation_rejects_non_prime():
    with pytest.raises(ValueError, match="invalid prime"):
        valuation(Fraction(1, 2), 4)
    with pytest.raises(ValueError, match="invalid prime"):
        padic_abs(Fraction(1), 91)


def test_split_power_against_the_loop():
    """Splitting off p by repeated squaring against dividing out one p at a
    time, on seeded n = +-u * p^v with p not dividing u, v up to 3000 and
    p^v up to 12000 bits."""

    def by_the_loop(n, p):
        v = 0
        while n % p == 0:
            v += 1
            n //= p
        return v, n

    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13, 97, 10**9 + 7, 3317044064679887385961813)
    for _ in range(1500):
        p = rng.choice(primes)
        top = min(3000, 12000 // p.bit_length())
        v = rng.choice((rng.randrange(8), rng.randrange(top // 8), rng.randrange(top + 1)))
        u = rng.randrange(1, 10**12)
        u += u % p == 0
        n = rng.choice((1, -1)) * u * p**v
        assert split_power(n, p) == by_the_loop(n, p) == (v, n // p**v), (n, p)
    with pytest.raises(ValueError, match="valuation of 0"):
        split_power(0, 5)


def test_split_power_takes_log_v_divisions():
    """Dividing out one p at a time takes seconds here."""
    with within_seconds(0.5):
        assert split_power(3 * 2**100000, 2) == (100000, 3)
        assert split_power(-7 * 3**40000, 3) == (40000, -7)


def test_padic_abs_examples():
    assert padic_abs(Fraction(351, 100), 2) == 4
    for p in (2, 3, 5, 97):
        assert padic_abs(Fraction(1), p) == 1
    assert padic_abs(Fraction(-128), 2) == Fraction(1, 128)
    assert padic_abs(Fraction(0), 5) == 0


def test_padic_abs_and_valuation_match_the_counting_oracle():
    """Seeded Fractions u * p^k, k in [-6, 6], and ints n * p^k, k in [0, 6],
    against `oracles._padic_abs`, which counts the factors p one at a time;
    every result is an exact Fraction, and the draws cover negative, zero
    and positive valuations (ints have no negative one)."""
    rng = random.Random(20261024)
    signs = set()
    for _ in range(1000):
        p, k = rng.choice(SMALL_PRIMES), rng.randint(-6, 6)
        unit = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
        n = rng.choice((-1, 1)) * rng.randint(1, 10**6) * p ** abs(k)
        for r in (unit * Fraction(p) ** k, n):
            expected = _padic_abs(Fraction(r), p)
            result = padic_abs(r, p)
            assert result == expected and type(result) is Fraction, (r, p)
            assert Fraction(p) ** -valuation(r, p) == expected, (r, p)
            signs.add((type(r), (expected < 1) - (expected > 1)))  # the sign of v_p(r)
    assert signs == {(Fraction, -1), (Fraction, 0), (Fraction, 1), (int, 0), (int, 1)}


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


def test_is_prime_cache_is_bounded():
    maxsize = is_prime.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 100):
        is_prime(n)
    assert is_prime.cache_info().currsize == maxsize
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


def test_padic_abs_multiplicative():
    for r, s, p in pair_draws(20261020):
        assert padic_abs(r * s, p) == padic_abs(r, p) * padic_abs(s, p), (r, s, p)


def test_strong_triangle_inequality():
    for r, s, p in pair_draws(20261021):
        lhs = padic_abs(r + s, p)
        a, b = padic_abs(r, p), padic_abs(s, p)
        assert lhs <= max(a, b), (r, s, p)
        if a != b:
            assert lhs == max(a, b), (r, s, p)


def test_product_formula():
    for r in rational_draws(20261022):
        if r == 0:
            continue
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
        assert product == 1, r


def test_canonical_form_closure():
    # Fraction keeps gcd(|num|, den) = 1 and den > 0 through arithmetic
    for r, s, _ in pair_draws(20261023):
        for value in (r + s, r - s, r * s):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
