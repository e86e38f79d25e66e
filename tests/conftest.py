import contextlib
import random
import signal
from fractions import Fraction

import pytest

from adelic_gaps import AdelePoint, PrimeSet, add_diagonal, reduce
from adelic_gaps.cli import random_point  # noqa: F401  (the one sampler, re-exported to the tests)

# Prime-set mix used by the seeded sweeps: small finite sets plus the two
# cofinite shapes exercised throughout.
PRIMESET_POOL = [
    PrimeSet.of(2),
    PrimeSet.of(3),
    PrimeSet.of(5),
    PrimeSet.of(2, 3),
    PrimeSet.of(2, 5),
    PrimeSet.of(3, 7),
    PrimeSet.of(2, 3, 5),
    PrimeSet.of(3, 5, 11),
    PrimeSet.all_primes(),
    PrimeSet.all_except(2),
]


# The acceptance oracle sets: criterion 8 adds sets whose tail starts past
# several excluded primes.
ORACLE_PRIMESETS = [
    PrimeSet.of(2),
    PrimeSet.of(3, 5),
    PrimeSet.of(2, 5, 7),
    PrimeSet.all_primes(),
    PrimeSet.all_except(2),
    PrimeSet.all_except(3),
    PrimeSet.all_except(2, 3, 5, 7),
]


def random_primeset(rng: random.Random) -> PrimeSet:
    return rng.choice(PRIMESET_POOL)


def unreduced_point(rng: random.Random, primes: PrimeSet, height: int) -> AdelePoint:
    """A valid point that is mostly far from the fundamental domain.

    One draw in 8, where a prime q among 2, 3, 5, 7, 11 lies outside the set,
    is torsion: (c, c) with c = a/q, shifted by a diagonal element of Gamma_P.
    The others have the coordinate at infinity a/b with |a| <= 3 * height and
    b <= height, mostly outside [0, 1); overrides at a random subset of the
    three smallest members, with denominators p^k * m for k <= 3 and m <= 4,
    one in four of them 0 or the default instead; and a nonzero default whose
    denominator is built from overridden primes and q, so it stays p-integral
    where it applies.
    """
    q = next((p for p in (2, 3, 5, 7, 11) if p not in primes), None)
    gamma = Fraction(rng.randint(-height, height), primes.smallest() ** rng.randint(0, 2))
    if q is not None and rng.randrange(8) == 0:
        c = Fraction(rng.randint(1, q - 1), q)
        return add_diagonal(AdelePoint(c, c, {}, primes), gamma)
    keys = [p for p in primes.first_members(3) if rng.random() < 0.6]
    den = q ** rng.randint(0, 1) if q is not None else 1
    for p in keys:
        den *= p ** rng.randint(0, 2)
    default = Fraction(rng.choice((-1, 1)) * rng.randint(1, height), den)
    overrides = {}
    for p in keys:
        kind = rng.randrange(8)
        if kind == 0:
            overrides[p] = Fraction(0)
        elif kind == 1:
            overrides[p] = default
        else:
            overrides[p] = Fraction(rng.randint(-height, height), p ** rng.randint(0, 3) * rng.randint(1, 4))
    inf = Fraction(rng.randint(-3 * height, 3 * height), rng.randint(1, height))
    return AdelePoint(inf, default, overrides, primes)


def real_bound_draws(seed: int, count: int, max_N: int):
    """Seeded (alpha, N) over `ORACLE_PRIMESETS` for the real-bound skip.

    Mostly `unreduced_point`s; one in four keeps the reduced prime coordinates
    of such a point and puts c/d with d <= 5 at the real place, shifted by an
    integer, so the real bound of most multiples is large and few k are skipped.
    """
    rng = random.Random(seed)
    for i in range(count):
        primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
        alpha = unreduced_point(rng, primes, 30)
        if i % 4 == 3:
            xbar = reduce(alpha)[0]
            d = rng.randint(2, 5)
            real = Fraction(rng.randint(1, d - 1), d)
            alpha = add_diagonal(AdelePoint(real, xbar.default_value, xbar.overrides, primes),
                                 rng.randint(-30, 30))
        yield alpha, rng.randint(2, max_N)


@pytest.fixture
def rng():
    return random.Random(20260823)


@contextlib.contextmanager
def within_seconds(limit):
    """Fail the block with TimeoutError if it runs past `limit` wall-clock seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
