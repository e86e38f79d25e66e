import contextlib
import random
import signal

import pytest

from adelic_gaps import PrimeSet
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


def random_primeset(rng: random.Random) -> PrimeSet:
    return rng.choice(PRIMESET_POOL)


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
