"""Seeded input generators for the benchmark workloads.

Every workload is a list of `Call`s, each one argv for `adelic_gaps.cli.main`.
Inputs come in blocks: the timed loop only stops at a block boundary, and each
block has the same composition (prime sets, size pairs, share of 31-digit
draws), so runs of different length and different seeds see the same mix.

The generators use only the standard library and never import the program:
degenerate draws (every orbit point coincides, which the CLI rejects with exit
code 1) are screened here with the exact criterion below, so no draw is ever
redrawn inside the timed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# The acceptance sweep's prime-set mix (criterion 2): finite and cofinite sets.
SWEEP_PRIMESETS = ("2", "3", "7", "2,3", "3,5", "2,5,7", "2,3,5", "all", "all-except:2")
WIDE_PRIMESETS = ("all", "all-except:2", "all-except:2,3,5,7")
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    primes: str
    alpha: str
    N: int
    long_digits: bool = False  # a wide_digits draw with a 31-digit default


@dataclass(frozen=True)
class Workload:
    name: str
    block: int  # calls per block; the timed loop stops only between blocks
    digest_calls: int  # the first calls, hashed into output_sha256; every run makes them
    trace_calls: int  # the first calls, run by the traced run
    deadline_s: float  # per-call deadline enforced by the benchmark
    generate: object  # (rng, n_blocks) -> list[Call]
    blocks: int  # blocks generated at set-up, a few times what a run reaches; a run that uses them all starts over


def _cofinite(spec: str) -> bool:
    return spec == "all" or spec.startswith("all-except:")


def _first_members(spec: str, k: int) -> list[int]:
    if _cofinite(spec):
        excluded = {int(t) for t in spec.partition(":")[2].split(",") if t}
        return [p for p in _SMALL_PRIMES if p not in excluded][:k]
    return [int(t) for t in spec.split(",")][:k]


def _in_gamma(gamma: Fraction, spec: str) -> bool:
    """gamma in Gamma_P = Z[1/P]: every prime of its denominator lies in P."""
    den = gamma.denominator
    factors, d = set(), 2
    while d * d <= den:
        while den % d == 0:
            factors.add(d)
            den //= d
        d += 1
    if den > 1:
        factors.add(den)
    if _cofinite(spec):
        return not factors & {int(t) for t in spec.partition(":")[2].split(",") if t}
    return factors <= {int(t) for t in spec.split(",")}


def _degenerate(spec: str, inf: Fraction, default: Fraction, overrides: dict[int, Fraction]) -> bool:
    """alpha lies in Gamma_P, so for N >= 2 every orbit point coincides.

    A row of the orbit's distance matrix is all zero only if n*alpha = m*alpha
    mod Gamma_P for every m, in particular for m = n +- 1, i.e. alpha in Gamma_P:
    every coordinate equals one gamma of Gamma_P.
    """
    coords = {inf, *overrides.values()}
    if _cofinite(spec) or len(overrides) < len(spec.split(",")):
        coords.add(default)  # some prime of the set takes the default
    if len(coords) != 1:
        return False
    return _in_gamma(coords.pop(), spec)


def _rational(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _call(command: str, spec: str, inf, default, overrides, N: int, long_digits=False) -> Call:
    parts = [f"inf={inf}", f"default={default}"] + [f"{p}={v}" for p, v in overrides.items()]
    alpha = ";".join(parts)
    argv = (command, "--primes", spec, "--alpha", alpha, "--N", str(N), "--format", "json")
    return Call(argv, spec, alpha, N, long_digits)


def _sweep_point(rng, spec: str, height: int):
    """Random point in the shape of `cli.random_instance`, redrawn while degenerate."""
    while True:
        overrides = {p: _rational(rng, height) for p in _first_members(spec, 4) if rng.random() < 0.4}
        inf = _rational(rng, height)
        if not _degenerate(spec, inf, Fraction(0), overrides):
            return inf, overrides


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _stratified(rng, lo: int, hi: int, k: int) -> list[int]:
    """k draws from [lo, hi], one from each of k equal strata, in random order."""
    edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
    return _shuffled(rng, [rng.randint(a, b - 1) for a, b in zip(edges, edges[1:])])


def gen_sweep(rng: random.Random, n_blocks: int) -> list[Call]:
    """Each block: every acceptance prime set once, N stratified over [2, 40]; heights <= 60."""
    calls = []
    for _ in range(n_blocks):
        sizes = _stratified(rng, 2, 40, len(SWEEP_PRIMESETS))
        for spec, N in zip(_shuffled(rng, SWEEP_PRIMESETS), sizes):
            inf, overrides = _sweep_point(rng, spec, 60)
            calls.append(_call("gaps", spec, inf, 0, overrides, N))
    return calls


def gen_large_n(rng: random.Random, n_blocks: int) -> list[Call]:
    """`gaps` at N = 200 on F1-shaped points: P = {2}, inf of height <= 400 and
    a 2-adic override of height <= 60, like the published F1.

    One shape and one N keep the per-call cost nearly constant, so the latency
    percentiles of the few calls a run holds are steady.
    """
    calls = []
    for _ in range(n_blocks * LARGE_N_BLOCK):
        while True:
            inf, override = _rational(rng, 400), _rational(rng, 60)
            if not _degenerate("2", inf, Fraction(0), {2: override}):
                break
        calls.append(_call("gaps", "2", inf, 0, {2: override}, 200))
    return calls


def gen_lattice_check(rng: random.Random, n_blocks: int) -> list[Call]:
    """`lattice-check` on sweep-shaped draws: each block has every prime set once, N stratified over [20, 30]."""
    calls = []
    for _ in range(n_blocks):
        sizes = _stratified(rng, 20, 30, len(SWEEP_PRIMESETS))
        for spec, N in zip(_shuffled(rng, SWEEP_PRIMESETS), sizes):
            inf, overrides = _sweep_point(rng, spec, 60)
            calls.append(_call("lattice-check", spec, inf, 0, overrides, N))
    return calls


def _probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 20 prime bases (no known counterexample)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_with_digits(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1) + 1, 10**digits, 2)
        if _probable_prime(n):
            return n


WIDE_BLOCK = 160  # one 31-digit draw per block: a fixed 1/160 share
# digit counts of the defaults per block: the cheap classes (7 and 8 digits)
# hold the middle of the call times and 10 digits the top fifth, so the median
# and the 90th percentile each fall inside one digit class, not on an edge
WIDE_DIGITS = (7,) * 48 + (8,) * 64 + (9,) * 16 + (10,) * 32
LARGE_N_BLOCK = 2


def gen_wide_digits(rng: random.Random, n_blocks: int) -> list[Call]:
    """`gaps` on cofinite sets with nonzero 7-10 digit integer defaults, N in [6, 8].

    Each block of 160 has the digit counts of WIDE_DIGITS, the prime sets in
    turn and every N in [6, 8] equally often.  Overrides are integers in
    [-60, 60], so the integers the program factors stay near the default's
    size: with rational overrides their denominators scale the default to
    12-13 digits, and the rare call that then meets a large prime takes half
    a second and makes a run's rate depend on how many such calls its seed
    drew.  Small N keeps calls cheap, so a run holds several hundred of them,
    and the 2 s deadline is over ten times the slowest other call.  One call
    per block instead has a 31-digit prime default, with inf in [0, 1/2):
    reduce() then leaves the first two orbit points at defaults D and 2D, the
    first distance factors |D| by trial division and the call cannot finish
    (the unbounded-work defect on large integers).  The share is fixed, so
    while that defect stands `fail_ratio` is exactly 1/160.
    """
    calls = []
    for _ in range(n_blocks):
        long_at = rng.randrange(WIDE_BLOCK)
        specs = _shuffled(rng, [WIDE_PRIMESETS[i % len(WIDE_PRIMESETS)] for i in range(WIDE_BLOCK)])
        digit_counts = _shuffled(rng, WIDE_DIGITS)
        sizes = _shuffled(rng, [6 + i % 3 for i in range(WIDE_BLOCK)])
        for i, (spec, digits, N) in enumerate(zip(specs, digit_counts, sizes)):
            sign = rng.choice((-1, 1))
            if i == long_at:
                default = sign * _prime_with_digits(rng, 31)
                inf = Fraction(rng.randint(0, 29), 60)
                overrides = {p: rng.randint(-60, 60) for p in _first_members(spec, 4) if rng.random() < 0.4}
                calls.append(_call("gaps", spec, inf, default, overrides, N, long_digits=True))
                continue
            default = sign * rng.randint(10 ** (digits - 1), 10**digits - 1)
            while True:
                overrides = {p: rng.randint(-60, 60) for p in _first_members(spec, 4) if rng.random() < 0.4}
                inf = _rational(rng, 60)
                if not _degenerate(spec, inf, Fraction(default), overrides):
                    break
            calls.append(_call("gaps", spec, inf, default, overrides, N))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", block=len(SWEEP_PRIMESETS), digest_calls=720, trace_calls=90,
                 deadline_s=20.0, generate=gen_sweep, blocks=400),
        Workload("large_n", block=LARGE_N_BLOCK, digest_calls=20, trace_calls=2,
                 deadline_s=120.0, generate=gen_large_n, blocks=100),
        Workload("lattice_check", block=len(SWEEP_PRIMESETS), digest_calls=117, trace_calls=18,
                 deadline_s=60.0, generate=gen_lattice_check, blocks=100),
        Workload("wide_digits", block=WIDE_BLOCK, digest_calls=3 * WIDE_BLOCK, trace_calls=WIDE_BLOCK,
                 deadline_s=2.0, generate=gen_wide_digits, blocks=16),
    )
}


def generate(name: str, seed: int) -> list[Call]:
    workload = WORKLOADS[name]
    return workload.generate(random.Random(f"perfbench/{name}/{seed}"), workload.blocks)
