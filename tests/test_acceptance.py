"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

All comparisons are exact rational equality (zero tolerance).  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    PrimeSet,
    RotationMatrixSpec,
    G_N_value,
    add,
    add_diagonal,
    default_instances,
    delta_via_lattice,
    gap_report,
    reduce,
    reproduce_all,
    scan_G,
    torus_distance,
    zero_point,
)
from adelic_gaps.arith import padic_abs
from adelic_gaps.cli import random_instance, random_rational

from conftest import ORACLE_PRIMESETS, random_point
from oracles import brute_force_torus_distance, pairwise_deltas

SWEEP_PRIMESETS = [
    PrimeSet.of(2),
    PrimeSet.of(3),
    PrimeSet.of(7),
    PrimeSet.of(2, 3),
    PrimeSet.of(3, 5),
    PrimeSet.of(2, 5, 7),
    PrimeSet.of(2, 3, 5),
    PrimeSet.all_primes(),
    PrimeSet.all_except(2),
]


def _verdict(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.1f}s) {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _sample_instance(rng, max_N, height):
    while True:
        alpha, N = random_instance(rng, rng.choice(SWEEP_PRIMESETS), max_N, height)
        try:
            return alpha, N, gap_report(alpha, N)
        except DegenerateOrbitError:
            continue


def _random_gamma(rng, primes, height):
    """An element of Gamma_P: an integer over a power of the set's smallest prime."""
    return Fraction(rng.randint(-height, height), primes.smallest() ** rng.randint(0, 2))


def _oracle_point(rng, primes, height):
    """A point with a nonzero default, p-integral at every prime of the set it applies to.

    One draw in 16 is a diagonal element of Gamma_P (a degenerate orbit) and
    one in 16, where a prime q lies outside the set, has order q on the torus
    (zero differences inside the window).
    """
    kind = rng.randrange(16)
    if kind == 0:
        return add_diagonal(zero_point(primes), _random_gamma(rng, primes, height))
    q = next((p for p in (2, 3, 5, 7, 11) if p not in primes), None)
    if kind == 1 and q is not None:
        c = Fraction(rng.randint(1, q - 1), q)
        return add_diagonal(AdelePoint(c, c, {}, primes), _random_gamma(rng, primes, height))
    alpha = random_point(rng, primes, height)
    default = random_rational(rng, height) or Fraction(1)
    den = default.denominator
    for p in range(2, den + 1):
        if den % p == 0 and p in primes and p not in alpha.overrides:
            while den % p == 0:
                den //= p
    default = Fraction(default.numerator, den)
    return AdelePoint(alpha.at_infinity, default, alpha.overrides, primes)


def test_criterion_1_paper_reproduction_exact():
    start = time.time()
    table = reproduce_all()
    failures = [r for r in table.rows if not r.ok]
    detail = "; ".join(f"{r.label}.{r.quantity}: {r.expected} != {r.computed}" for r in failures)
    _verdict(1, "paper reproduction, exact", not failures, time.time() - start,
             detail or f"{len(table.rows)} pinned values")


def test_criterion_2_three_gap_sweep():
    start = time.time()
    rng = random.Random(1001)
    histogram = {1: 0, 2: 0, 3: 0}
    violation = None
    for _ in range(2000):
        alpha, N, report = _sample_instance(rng, max_N=40, height=60)
        if report.gap_count > 3:
            violation = f"g={report.gap_count} at alpha={alpha}, N={N}"
            break
        histogram[report.gap_count] += 1
    ok = violation is None and all(histogram[g] >= 1 for g in (1, 2, 3))
    _verdict(2, "three gap theorem sweep", ok, time.time() - start,
             violation or f"histogram {histogram}")


def test_criterion_3_dual_path_identity():
    start = time.time()
    rng = random.Random(1002)
    mismatches = []
    instances = [(inst.alpha, inst.N) for inst in default_instances()]
    for _ in range(200):
        alpha, N, _ = _sample_instance(rng, max_N=20, height=30)
        instances.append((alpha, N))
    for alpha, N in instances:
        report = gap_report(alpha, N)
        for n in range(1, N + 1):
            direct = report.deltas[n - 1]
            lattice = delta_via_lattice(alpha, N, n)
            if direct != lattice:
                mismatches.append(f"alpha={alpha}, N={N}, n={n}: {direct} != {lattice}")
    _verdict(3, "dual-path gap identity", not mismatches, time.time() - start,
             "; ".join(mismatches[:3]) or f"{len(instances)} instances")


def test_criterion_4_quotient_metric_oracle():
    start = time.time()
    rng = random.Random(1003)
    violations = 0
    for _ in range(500):
        primes = rng.choice(SWEEP_PRIMESETS)
        x, _ = reduce(random_point(rng, primes, 30))
        y, _ = reduce(random_point(rng, primes, 30))
        if torus_distance(x, y) != brute_force_torus_distance(x, y, 32):
            violations += 1
    _verdict(4, "quotient metric vs brute-force oracle", violations == 0,
             time.time() - start, f"{violations} violations")


def test_criterion_5_scan_bound_and_chain():
    start = time.time()
    rng = random.Random(1004)
    problems = []
    cases = [(inst.alpha, inst.N) for inst in default_instances()]
    for _ in range(100):
        alpha, N, _ = _sample_instance(rng, max_N=12, height=30)
        cases.append((alpha, N))
    for alpha, N in cases:
        spec = RotationMatrixSpec(alpha, N)
        scan = scan_G(spec)
        g = gap_report(alpha, N).gap_count
        g_n = G_N_value(spec)
        if scan.distinct_count > 3:
            problems.append(f"scan count {scan.distinct_count} > 3 at alpha={alpha}, N={N}")
        if not g == g_n <= scan.distinct_count:
            problems.append(f"chain broken at alpha={alpha}, N={N}: {g}, {g_n}, {scan.distinct_count}")
    _verdict(5, "scan bound and count chain", not problems, time.time() - start,
             "; ".join(problems[:3]) or f"{len(cases)} specs")


def test_criterion_6_metric_properties():
    start = time.time()
    rng = random.Random(1005)
    violations = []
    for i in range(1000):
        primes = rng.choice(SWEEP_PRIMESETS)
        x = random_point(rng, primes, 30)
        y = random_point(rng, primes, 30)
        z = random_point(rng, primes, 30)
        dxy, dyx = torus_distance(x, y), torus_distance(y, x)
        if dxy != dyx:
            violations.append(f"symmetry at triple {i}")
        if torus_distance(x, z) > dxy + torus_distance(y, z):
            violations.append(f"triangle at triple {i}")
        same_coset = reduce(x)[0] == reduce(y)[0]
        if (dxy == 0) != same_coset:
            violations.append(f"indiscernibles at triple {i}")
        if torus_distance(add(x, z), add(y, z)) != dxy:
            violations.append(f"translation at triple {i}")
        bound_ok = dxy <= 1 if primes.finite else dxy < 1
        if not bound_ok:
            violations.append(f"diameter bound at triple {i}: {dxy}")
    _verdict(6, "metric property suite", not violations, time.time() - start,
             "; ".join(violations[:3]) or "zero violations in 1000 triples")


def test_criterion_7_reduction_suite():
    start = time.time()
    rng = random.Random(1006)
    violations = []
    for i in range(1000):
        primes = rng.choice(SWEEP_PRIMESETS)
        x = random_point(rng, primes, 30)
        point, gamma = reduce(x)
        if point != add_diagonal(x, -gamma):
            violations.append(f"translate mismatch at point {i}")
        again, gamma2 = reduce(point)
        if gamma2 != 0 or again != point:
            violations.append(f"idempotence at point {i}")
        if not 0 <= point.at_infinity < 1:
            violations.append(f"infinity coordinate out of range at point {i}")
        if any(padic_abs(point.coordinate(p), p) > 1 for p in point.overrides):
            violations.append(f"non-integral coordinate at point {i}")
    _verdict(7, "fundamental-domain reduction suite", not violations, time.time() - start,
             "; ".join(violations[:3]) or "zero violations in 1000 points")


def _deltas_or_degenerate(compute):
    try:
        return compute()
    except DegenerateOrbitError:
        return "degenerate"


def test_criterion_8_gap_engine_vs_pairwise_oracle():
    start = time.time()
    rng = random.Random(1008)
    mismatches = []
    degenerate = cofinite_default = 0
    for _ in range(600):
        primes = rng.choice(ORACLE_PRIMESETS)
        alpha = _oracle_point(rng, primes, 30)
        N = rng.randint(1, 12)
        engine = _deltas_or_degenerate(lambda: gap_report(alpha, N).deltas)
        oracle = _deltas_or_degenerate(lambda: pairwise_deltas(alpha, N))
        if engine != oracle:
            mismatches.append(f"alpha={alpha}, primes={primes}, N={N}: {engine} != {oracle}")
        degenerate += engine == "degenerate"
        cofinite_default += not primes.finite and alpha.default_value != 0
    ok = not mismatches and degenerate > 0 and cofinite_default > 0
    _verdict(8, "gap engine vs pairwise-matrix oracle", ok, time.time() - start,
             "; ".join(mismatches[:3])
             or f"{degenerate} degenerate, {cofinite_default} cofinite with nonzero default")
