import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    GapReport,
    PrimeSet,
    TorusPoint,
    add_diagonal,
    adele,
    gap_report,
    orbit,
    reduce,
    torus_distance,
    torus_gaps,
    zero_point,
)

from conftest import (
    ORACLE_PRIMESETS,
    counting,
    in_child,
    random_point,
    random_primeset,
    real_bound_draws,
    unreduced_point,
    within_seconds,
)
from oracles import (
    expanded,
    least_positive_prefix,
    multiple,
    pairwise_deltas,
    prefix_min_deltas,
    real_bound,
    record_walk,
    reference_norm,
    reference_torus_distance,
)

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)

F1_ALPHA = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
F2_ALPHA = AdelePoint(Fraction(16, 5), 0, {3: 1}, P3)
COFINITE_ALPHA = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())


class TestOrbit:
    def test_f2_orbit(self):
        points = list(orbit(F2_ALPHA, 5))
        assert len(points) == 5
        xi4 = points[3]
        assert xi4.at_infinity == Fraction(4, 5)
        # 3-adic coordinate of 4*alpha shifted by -12: 4 - 12 = -8, still 3-integral
        assert xi4.coordinate(3) == -8

    def test_single_point(self):
        points = list(orbit(F1_ALPHA, 1))
        assert len(points) == 1
        assert points[0] == reduce(F1_ALPHA)[0]

    def test_zero_alpha_collapses(self):
        zero = AdelePoint(0, 0, {}, P2)
        points = list(orbit(zero, 4))
        assert len(points) == 4
        assert all(p == points[0] for p in points)

    def test_rejects_bad_N(self):
        """N is checked when orbit is called, not when the first point is read."""
        with pytest.raises(ValueError):
            orbit(F1_ALPHA, 0)

    def test_steps_match_per_point_reduction(self):
        """The closed-form orbit against reducing each n*alpha on its own, field by field."""
        rng = random.Random(20261018)
        seen = Counter()
        for i in range(280):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha = unreduced_point(rng, primes, 30)
            N = rng.randint(1, 60)
            points = list(orbit(alpha, N))
            assert len(points) == N
            for n, point in enumerate(points, start=1):
                expected, _ = reduce(multiple(alpha, n))
                assert type(point) is TorusPoint and point.primes == primes
                assert point.at_infinity == expected.at_infinity, (str(alpha), n)
                assert point.default_value == expected.default_value, (str(alpha), n)
                assert dict(point.overrides) == dict(expected.overrides), (str(alpha), n)
                assert str(point) == str(expected)
            seen["torsion"] += reduce(multiple(alpha, 11 * 7 * 5 * 3 * 2))[0] == reduce(
                AdelePoint(0, 0, {}, primes))[0]
            seen["inf < 0"] += alpha.at_infinity < 0
            seen["inf >= 1"] += alpha.at_infinity >= 1
            seen["nonzero default"] += alpha.default_value != 0
            seen["p-power denominator"] += any(
                v.denominator % p == 0 for p, v in alpha.overrides.items())
            seen["N >= 50"] += N >= 50
        assert min(seen.values()) >= 10, seen

    def test_far_point_is_built_alone(self, monkeypatch):
        """Point 10**18 is built in closed form, without the points before it, and
        the orbit's first point is the reduced alpha itself, with no `_multiple` call."""
        counts = Counter()
        monkeypatch.setattr(TorusPoint, "_multiple",
                            counting(counts, "_multiple", TorusPoint._multiple))
        for alpha in (F1_ALPHA, F2_ALPHA, COFINITE_ALPHA):
            far = reduce(alpha)[0]._multiple(10**18)
            expected = reduce(multiple(alpha, 10**18))[0]
            assert far == expected and str(far) == str(expected)
            counts.clear()
            first = next(orbit(alpha, 10**18))
            assert counts["_multiple"] == 0
            assert first == reduce(alpha)[0] and str(first) == str(reduce(alpha)[0])


class TestNnDistance:
    def test_f1_values(self):
        assert expanded(gap_report(F1_ALPHA, 52).runs)[2 - 1] == Fraction(3, 20)

    def test_f2_values(self):
        assert expanded(gap_report(F2_ALPHA, 5).runs)[3 - 1] == Fraction(4, 5)

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateOrbitError):
            gap_report(F1_ALPHA, 1)


class TestGapReport:
    def test_f1(self):
        report = gap_report(F1_ALPHA, 52)
        assert report.gap_count == 3
        assert report.distinct_gaps == [Fraction(1, 100), Fraction(3, 20), Fraction(4, 25)]
        assert report.witnesses[Fraction(1, 100)] == 1
        assert report.witnesses[Fraction(3, 20)] == 2
        assert report.witnesses[Fraction(4, 25)] == 18

    def test_i2(self):
        alpha = AdelePoint(Fraction(27, 50), 0, {2: -1}, PrimeSet.all_primes())
        report = gap_report(alpha, 6)
        assert report.distinct_gaps == [Fraction(3, 10), Fraction(1, 3), Fraction(23, 50)]

    def test_single_gap(self):
        alpha = AdelePoint(Fraction(2, 7), 0, {}, P2)
        report = gap_report(alpha, 3)
        assert report.gap_count == 1
        assert set(expanded(report.runs)) == {Fraction(2, 7)}

    def test_invariants(self):
        report = gap_report(F2_ALPHA, 5)
        assert report.gap_count == len(report.distinct_gaps)
        deltas = expanded(report.runs)
        assert set(deltas) == set(report.distinct_gaps)
        assert all(d > 0 for d in deltas)
        assert all(deltas[n - 1] == g for g, n in report.witnesses.items())

    def test_deltas_hold_the_distinct_gap_objects(self):
        """The CLI prints each distinct gap once and finds each run's string by
        the object's identity."""
        for alpha, N in ((F1_ALPHA, 52), (F2_ALPHA, 5), (COFINITE_ALPHA, 60)):
            report = gap_report(alpha, N)
            ids = {id(g) for g in report.distinct_gaps}
            assert {id(v) for v, _ in report.runs} == ids
            assert {id(d) for d in expanded(report.runs)} == ids
            assert {id(g) for g in report.witnesses} == ids

    def test_runs_are_read_off_the_records_at_any_n(self):
        """At N = 10**18 the last two records of F1 below N are k = 100 * 2**52
        and 100 * 2**53, with D = 2**-52 and 2**-53 (see
        `test_f1_records_double_after_51`).  The radii of n <= N/2 run from
        N - 1 down to N/2, and the later n repeat them in reverse, so the
        profile is four runs; each gap's least witness starts its first run.
        Nothing of size N is built."""
        N = 10**18
        report = gap_report(F1_ALPHA, N)
        low, high = Fraction(1, 2**53), Fraction(1, 2**52)
        a, b = N - 100 * 2**53, 100 * 2**53 - N // 2
        assert report.runs == [(low, a), (high, b), (high, b), (low, a)]
        assert report.witnesses == {low: 1, high: a + 1}

    def test_degenerate_orbit_propagates(self):
        diagonal = AdelePoint(Fraction(3), 3, {}, P2)  # the coset of 3 in Gamma_P
        with pytest.raises(DegenerateOrbitError):
            gap_report(diagonal, 4)

    def test_duplicate_orbit_points_are_skipped_not_fatal(self):
        # 3*alpha is the zero coset, so xi_1 = xi_4 gives zero distances, but
        # positive distances remain and the gaps stay defined
        alpha = AdelePoint(Fraction(1, 3), Fraction(1, 3), {}, P2)
        report = gap_report(alpha, 4)
        assert all(d > 0 for d in expanded(report.runs))
        points = list(orbit(alpha, 4))
        assert torus_distance(points[0], points[3]) == 0

    def test_counts_one_reduce_and_one_kernel_call_per_record(self, monkeypatch):
        """gap_report reduces alpha once, builds no validated point per orbit point,
        computes D[1] by `_reduced_distance`, and runs the pair kernel exactly at
        the records after it: the k <= N - 1 at which the least positive D[j],
        j < k, strictly falls, so never at a k with D[k] >= that least value."""
        cofinite = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())
        expected = {}
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            for N in (2, 9, 60):
                least = least_positive_prefix(alpha, N - 1)
                expected[str(alpha), N] = [1] + [
                    k for k in range(2, N) if least[k - 1] < least[k - 2]
                ]
        counts = Counter()
        kernel_ks = []
        counted_reduce = counting(counts, "reduce", adele.reduce)
        for module in (adele, torus_gaps):
            monkeypatch.setattr(module, "reduce", counted_reduce)
        monkeypatch.setattr(torus_gaps, "_reduced_distance",
                            counting(counts, "_reduced_distance", torus_gaps._reduced_distance))
        kernel = torus_gaps._multiple_distance

        def recording(xbar, k):
            kernel_ks.append(k)
            return kernel(xbar, k)

        monkeypatch.setattr(torus_gaps, "_multiple_distance", recording)
        monkeypatch.setattr(TorusPoint, "_multiple",
                            counting(counts, "_multiple", TorusPoint._multiple))
        monkeypatch.setattr(AdelePoint, "__post_init__",
                            counting(counts, "__post_init__", AdelePoint.__post_init__))
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            constructions = set()
            for N in (2, 9, 60):
                counts.clear()
                kernel_ks.clear()
                report = gap_report(alpha, N)
                assert counts["reduce"] == 1
                assert counts["_reduced_distance"] == 1  # D[1]
                assert kernel_ks == report.records[0][1:]
                assert [1] + kernel_ks == expected[str(alpha), N], (str(alpha), N)
                assert counts["_multiple"] == 0  # the reduced alpha is the first point
                constructions.add(counts["__post_init__"])
            assert len(constructions) == 1, (str(alpha), constructions)
        assert len(expected[str(F1_ALPHA), 60]) < 60 - 1

    def test_builds_no_orbit_point_and_one_fraction_per_record(self, monkeypatch):
        """Besides the reduced alpha and zero, gap_report builds no point: a D[k]
        with k >= 2 comes from alpha's integers as a pair, only at a record, and a
        Fraction is built only there."""
        drops = {}
        for alpha in (F1_ALPHA, F2_ALPHA, COFINITE_ALPHA):
            for N in (2, 9, 60, 400):
                drops[str(alpha), N] = len(set(least_positive_prefix(alpha, N - 1))) - 1
        counts = Counter()
        counted_reduce = counting(counts, "reduce", adele.reduce)
        for module in (adele, torus_gaps):
            monkeypatch.setattr(module, "reduce", counted_reduce)
        monkeypatch.setattr(torus_gaps, "_multiple_distance",
                            counting(counts, "kernel", torus_gaps._multiple_distance))
        monkeypatch.setattr(TorusPoint, "_multiple",
                            counting(counts, "_multiple", TorusPoint._multiple))
        trusted = AdelePoint.__dict__["_trusted"].__func__
        monkeypatch.setattr(AdelePoint, "_trusted",
                            classmethod(counting(counts, "_trusted", trusted)))
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        for alpha in (F1_ALPHA, F2_ALPHA, COFINITE_ALPHA):
            fixed = set()
            for N in (2, 9, 60, 400):
                counts.clear()
                gap_report(alpha, N)
                assert counts["reduce"] == 1
                assert counts["_multiple"] == 0, (str(alpha), N, counts)
                assert counts["kernel"] == drops[str(alpha), N], (str(alpha), N, counts)
                fixed.add((counts["_trusted"], counts["Fraction"] - drops[str(alpha), N]))
            assert len(fixed) == 1, (str(alpha), fixed)
            assert drops[str(alpha), 400] > 0, str(alpha)

    def test_distinct_gaps_and_witnesses_match_full_walk(self):
        """The distinct gaps and witnesses read off the records against sorting
        all N deltas and taking each value's first index in order over every n."""
        rng = random.Random(20261119)
        checked = 0
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha, N = unreduced_point(rng, primes, 30), rng.randint(2, 60)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            deltas, first = expanded(report.runs), {}
            for n, d in enumerate(deltas, start=1):
                first.setdefault(d, n)
            assert report.distinct_gaps == sorted(set(deltas)), (str(alpha), N)
            assert list(report.witnesses.items()) == list(first.items()), (str(alpha), N)
            assert report.gap_count == len(first)
            checked += 1
        assert checked > 100

    def test_witnesses_gaps_and_count_on_synthetic_records(self):
        """On seeded records, ks rising from 1 below N and values falling, the
        witnesses, distinct gaps and g_N read off the runs match the expanded
        deltas: each value's first n, ascending; the sorted distinct values; and
        one gap per record in force at the radii N // 2 .. N - 1."""
        rng = random.Random(20261020)
        for _ in range(500):
            N = rng.randint(2, 300)
            ks = [1] + sorted(rng.sample(range(2, N), rng.randint(0, min(N - 2, 12))))
            values = [Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))]
            for _ in ks[1:]:
                values.append(values[-1] * Fraction(rng.randint(1, 99), 100))
            report = GapReport(N, (ks, values))
            deltas, first = expanded(report.runs), {}
            for n, d in enumerate(deltas, start=1):
                first.setdefault(d, n)
            assert list(report.witnesses.items()) == sorted(first.items()), (ks, N)
            assert report.distinct_gaps == sorted(set(deltas)), (ks, N)
            assert report.gap_count == 1 + sum(N // 2 < k <= N - 1 for k in ks), (ks, N)

    def test_invariant_under_reduction(self, rng):
        for _ in range(20):
            primes = random_primeset(rng)
            alpha = random_point(rng, primes, 30)
            reduced, _ = reduce(alpha)
            try:
                a = gap_report(alpha, 7)
            except DegenerateOrbitError:
                continue
            b = gap_report(reduced, 7)
            assert expanded(a.runs) == expanded(b.runs)


class TestRealBound:
    """The lattice walk and the record walk oracle skip a k whose real bound
    ||k * abar_inf|| reaches the running minimum; the record engine needs no
    skip.  The lemma, and gap_report against the walk without the skip."""

    def test_distance_to_zero_is_at_least_the_real_bound(self):
        rng = random.Random(20261018)
        seen = Counter()
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha = unreduced_point(rng, primes, 30)
            integral = i % 6 == 5
            if integral:
                # the reduced prime coordinates at an integer real coordinate: abar_inf = 0
                xbar = reduce(alpha)[0]
                alpha = add_diagonal(AdelePoint(0, xbar.default_value, xbar.overrides, primes),
                                     rng.randint(-30, 30))
                seen["integer alpha_inf"] += 1
            zero = zero_point(primes)
            for k in range(1, 41):
                bound = real_bound(alpha, k)
                distance = reference_torus_distance(multiple(alpha, k), zero)
                assert distance >= bound, (str(alpha), k)
                assert bound == 0 or not integral
                seen["attained"] += distance == bound > 0
        assert seen["integer alpha_inf"] >= 20 and seen["attained"] > 0, seen

    def test_deltas_match_the_unpruned_walk(self):
        compared = 0
        for alpha, N in real_bound_draws(20261019, 28, 400):
            try:
                expected = prefix_min_deltas(alpha, N)
            except DegenerateOrbitError:
                with pytest.raises(DegenerateOrbitError):
                    gap_report(alpha, N)
                continue
            assert expanded(gap_report(alpha, N).runs) == expected, (str(alpha), N)
            compared += 1
        assert compared >= 20


def exact_tail_cut_check():
    alpha = AdelePoint(Fraction(1, 100000), 0, {}, PrimeSet.all_primes())
    with within_seconds(0.3):
        report = gap_report(alpha, 200)
    assert report.records == ([1], [Fraction(1, 100000)])
    assert report.distinct_gaps == [Fraction(1, 100000)]


def finite_set_constraint_check():
    alpha = AdelePoint(3, Fraction(1, 5), {2: 3, 3: Fraction(3, 4)}, PrimeSet.of(2, 3))
    with within_seconds(0.5):
        ks, values = torus_gaps._records(alpha, 10**9)
    assert ks == [3**i for i in range(19)]
    assert values == [Fraction(1, 3 ** (i + 2)) for i in range(19)]


def wide_default_records_check():
    """`_records` against `record_walk` on cofinite draws shaped like the
    benchmark's wide-digit calls: 7-10 digit defaults, two in three of them
    multiples of 2310 = 2*3*5*7*11 or of 223092870 = 2*3*...*23, integer
    overrides up to 10**9, real denominators up to 10**4, and K <= 10, the
    size of those calls, or K <= 3000.  Half the draws have a real numerator below 10,
    so D[1] is small and every prime up to about 1/D[1] carries the default:
    a congruence cut short there admits a k whose D is not below the record,
    and the query from k = 1 then returns that k forever."""
    rng = random.Random(20261019)
    sets = (PrimeSet.all_primes(), PrimeSet.all_except(2), PrimeSet.all_except(2, 3, 5, 7))
    seen = Counter()
    for i in range(150):
        primes = sets[i % 3]
        digits, m = rng.randint(7, 10), rng.choice((1, 2310, 223092870))
        default = rng.randint(10 ** (digits - 1), 10**digits - 1)
        default = rng.choice((-1, 1)) * max(m, default - default % m)
        overrides = {p: rng.randint(-10**9, 10**9)
                     for p in primes.first_members(4) if rng.random() < 0.4}
        inf = Fraction(rng.randint(-10**4, 10**4) if i % 4 < 2 else rng.randint(1, 9),
                       rng.randint(1, 10**4))
        alpha, K = AdelePoint(inf, default, overrides, primes), rng.randint(2, (10, 3000)[i % 2])
        expected = record_walk(alpha, K)
        assert torus_gaps._records(alpha, K) == expected, (str(alpha), K)
        seen["multiple of 2310"] += default % 2310 == 0
        seen["more than 3 records"] += len(expected[0]) > 3
    assert min(seen.values()) >= 50, seen


class TestRecordEngine:
    """The convergent walk and the least prime powers against brute force, the
    congruence against the place terms, and the record engine where the walk
    oracle cannot go (K up to 10**18), on the inputs that size its modulus,
    and on wide-digit cofinite defaults."""

    def test_window_query_against_brute_force(self):
        """Every M <= 80, A in [-M, M) and H <= M/2: the least k >= 1 with
        A*k mod M within H of 0.  A*k mod M depends on A mod M and has a
        period dividing M, and k = M lands on 0, so the answers are the k <= M
        at which the distance of A*k mod M to 0 strictly falls: a fall at k to
        d answers every H from d up to the distance before it."""
        cases = 0
        for M in range(1, 81):
            top = M // 2 + 1
            for A in range(M):
                expected, low = [None] * top, top
                for k in range(1, M + 1):
                    d = min(A * k % M, -A * k % M)
                    if d < low:
                        expected[d:low] = [k] * (low - d)
                        low = d
                for shifted in (A, A - M):
                    got = [torus_gaps._first_near_zero(shifted, M, H) for H in range(top)]
                    assert got == expected, (shifted, M)
                    cases += top
        assert cases > 170_000

    def test_carried_powers_give_the_fresh_congruence(self):
        """At every record value L of `_records(alpha, 10**18)`, in falling
        order, one `_congruence` state asked at each L in turn gives on a
        finite set the (Q, u) of a fresh state built for that L alone, and on
        every set the same answer to the query of `_records` up to K, on F1,
        the 2,3,5 and cofinite instances of the CI runs, and seeded points over
        finite and cofinite sets, nonzero defaults and overrides included.  A
        carried cofinite Q may hold more default primes than a fresh one (see
        `test_congruence_against_the_place_terms`): a prime kept at a larger L
        stays, where the fresh walk stops at the product bound, past which
        every default congruence is implied."""
        K = 10**18
        rng = random.Random(20261027)
        alphas = [F1_ALPHA,
                  AdelePoint(Fraction(1, 999983), 0, {2: Fraction(1, 3)}, PrimeSet.of(2, 3, 5)),
                  AdelePoint(Fraction(-7, 3), 10, {11: Fraction(1, 4), 13: 5},
                             PrimeSet.all_except(2, 3, 5, 7))]
        alphas += [unreduced_point(rng, ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)], 30)
                   for i in range(70)]
        seen = Counter()
        for alpha in alphas:
            try:
                with within_seconds(1):  # a wrong congruence finds the same k forever
                    _, values = torus_gaps._records(alpha, K)
            except DegenerateOrbitError:
                continue
            xbar = reduce(alpha)[0]
            a, b = xbar.at_infinity.numerator, xbar.at_infinity.denominator
            carried = torus_gaps._congruence(xbar, K)
            for value in values:
                num, den = value.numerator, value.denominator
                got, fresh = carried(num, den), torus_gaps._congruence(xbar, K)(num, den)
                H = (num * b - 1) // den
                first, again = (min(torus_gaps._first_near_zero(a - u * b, Q * b, H), K + 1)
                                for Q, u in (got, fresh))
                assert first == again, (str(alpha), value)
                if alpha.primes.finite:
                    assert got == fresh, (str(alpha), value)
                seen["finite" if alpha.primes.finite else "cofinite"] += 1
                seen["Q > 1"] += got[0] > 1
        assert min(seen.values()) >= 500, seen

    def test_one_congruence_state_per_records_call(self, monkeypatch):
        """`_records` builds one `_congruence` state and asks it once per query,
        at each record value in turn: on F1 through K = 10**300, 989 records,
        the state is lifted from one record to the next, never rebuilt."""
        built, asked = [], []
        make = torus_gaps._congruence

        def spy(xbar, K):
            built.append(K)
            at = make(xbar, K)
            return lambda num, den: asked.append(Fraction(num, den)) or at(num, den)

        monkeypatch.setattr(torus_gaps, "_congruence", spy)
        with within_seconds(2):
            ks, values = torus_gaps._records(F1_ALPHA, 10**300)
        assert built == [10**300]
        assert asked == values and len(values) == 989

    def test_congruence_against_the_place_terms(self):
        """For every k <= K and every integer j within L of k*xbar_inf, the
        p-terms of k*xbar - j (`reference_norm` with the real term 0) are all
        below L exactly when j = k*u mod Q, on seeded reduced points, each
        asked at three falling L by one `_congruence` state, whose first call
        is fresh.  Half the draws range widely: finite and cofinite sets,
        override primes, defaults 0, up to 60 in size or multiples of 2310,
        over a prime outside the set, and L = num/den over small
        denominators, powers of 2 and denominators up to 5000.  The other half
        leave only the cofinite default primes, an integer default up to 60
        and L = 1/den with den <= 32, where the product of the primes up to
        1/L meets the bound (K + 1)(|c| + d) for K <= 40, so the cut there
        decides, and a carried Q may keep a default prime that a fresh state
        at the same L leaves out, as implied.  Real coordinates of small
        denominator put many integers k*xbar_inf in the window."""
        rng = random.Random(20261026)
        finite = (PrimeSet.of(2), PrimeSet.of(3), PrimeSet.of(2, 3), PrimeSet.of(2, 3, 5),
                  PrimeSet.of(3, 5, 7))
        cofinite = (PrimeSet.all_primes(), PrimeSet.all_except(2), PrimeSet.all_except(3),
                    PrimeSet.all_except(2, 3, 5, 7))
        seen = Counter()
        for i in range(700):
            if i % 2:
                primes, overrides = rng.choice(cofinite), {}
                default = Fraction(rng.choice((0, rng.randint(-60, 60))))
                Ls = [Fraction(1, rng.randint(1, 32)) for _ in range(3)]
                d = rng.randint(1, 12)
            else:
                primes = rng.choice(finite + cofinite)
                # a prime outside the set may divide the default's denominator
                q = rng.choice([q for q in (2, 3, 5, 7) if q not in primes] or [1])
                scale, top = rng.choice(((1, 0), (1, 60), (2310, 5)))
                default = Fraction(scale * rng.randint(-top, top), q ** rng.randint(0, 2))
                overrides = {}
                for p in primes.first_members(3):
                    if rng.random() < 0.5:
                        m = rng.choice([m for m in (1, 2, 3, 5, 7) if m % p])
                        overrides[p] = Fraction(rng.randint(-60, 60) * p ** rng.randint(0, 3), m)
                Ls = []
                for _ in range(3):
                    den = rng.choice((rng.randint(1, 12), 2 ** rng.randint(0, 12),
                                      rng.randint(1, 5000)))
                    Ls.append(Fraction(rng.choice((1, rng.randint(1, den))), den))
                d = rng.choice((rng.randint(1, 12), rng.randint(1, 1000)))
            xbar = TorusPoint(Fraction(rng.randrange(d), d), default, overrides, primes)
            K = rng.randint(1, 40)
            congruence = torus_gaps._congruence(xbar, K)
            for L in sorted(Ls, reverse=True):
                Q, u = congruence(L.numerator, L.denominator)
                fresh_Q = torus_gaps._congruence(xbar, K)(L.numerator, L.denominator)[0]
                assert Q % fresh_Q == 0, (str(xbar), L, K)
                seen["carried Q keeps more primes"] += Q != fresh_Q
                for k in range(1, K + 1):
                    center = k * xbar.at_infinity
                    for j in range(math.floor(center - L) + 1, math.ceil(center + L)):
                        coords = {p: k * v - j for p, v in overrides.items()}
                        below = reference_norm(Fraction(0), k * default - j, coords, primes) < L
                        assert below == ((j - k * u) % Q == 0), (str(xbar), L, K, k, j)
                        seen["below L" if below else "not below L"] += 1
                        seen["cofinite, nonzero default"] += not primes.finite and default != 0
        assert seen.pop("carried Q keeps more primes") >= 20 and min(seen.values()) >= 2000, seen

    def test_wide_digit_defaults_against_the_walk(self):
        """The check runs in a child process, killed after 10 s, so that a
        wrong congruence, on which the query from k = 1 would return the same
        k forever, fails the test instead of hanging it."""
        in_child(wide_default_records_check, 10)

    def test_exact_tail_cut_keeps_the_modulus_small(self):
        """On a cofinite set with a small D[1] every prime up to 1/D[1] carries
        the default; the primes past the product bound are implied, so the
        modulus stays small (without the cut it is the primorial of 10**5).
        The check runs in a child process, killed after 5 s."""
        in_child(exact_tail_cut_check, 5)

    def test_no_finite_set_constraint_is_dropped(self):
        """abar_inf reduces to 0 and the 3-adic coordinate is -9/4, so the
        records are the powers of 3; the 3-adic constraint is the binding one.
        The check runs in a child process, killed after 5 s."""
        in_child(finite_set_constraint_check, 5)

    def test_f1_records_double_after_51(self, monkeypatch):
        """F1's records after k = 51 are at 100 * 2**j with D = 2**-j, through
        K = 10**18 and K = 10**1000, and the kernel runs once per record after
        D[1].  The 3315 records through 10**1000 stay within their limit only
        if each valuation takes O(log v) divisions, not v."""
        kernel_ks = []
        kernel = torus_gaps._multiple_distance
        monkeypatch.setattr(torus_gaps, "_multiple_distance",
                            lambda xbar, k: kernel_ks.append(k) or kernel(xbar, k))
        for K, last_j, seconds in ((10**18, 53, 0.5), (10**1000, 3315, 2)):
            kernel_ks.clear()
            with within_seconds(seconds):
                ks, values = torus_gaps._records(F1_ALPHA, K)
            assert ks[:6] == [1, 3, 8, 16, 35, 51]
            assert values[:6] == [Fraction(51, 100), Fraction(47, 100), Fraction(1, 4),
                                  Fraction(4, 25), Fraction(3, 20), Fraction(1, 100)]
            assert ks[6:] == [100 * 2**j for j in range(7, last_j + 1)]
            assert values[6:] == [Fraction(1, 2**j) for j in range(7, last_j + 1)]
            assert kernel_ks == ks[1:]

    def test_ci_cofinite_alpha_has_14_records_through_10_to_18(self):
        alpha = AdelePoint(Fraction(-7, 3), 10, {11: Fraction(1, 4), 13: 5},
                           PrimeSet.all_except(2, 3, 5, 7))
        with within_seconds(0.5):
            ks, values = torus_gaps._records(alpha, 10**18)
        assert len(ks) == 14
        assert ks[:5] == [1, 3, 33, 429, 7293]
        assert values[:5] == [Fraction(1, 3), Fraction(1, 11), Fraction(1, 13),
                              Fraction(1, 17), Fraction(1, 19)]

    @pytest.mark.parametrize("c, primes, order", [
        (Fraction(1, 3), PrimeSet.of(2), 3),
        (Fraction(2, 7), PrimeSet.all_except(7), 7),
    ])
    def test_torsion_records_stop_at_the_order(self, monkeypatch, c, primes, order):
        """k*alpha lies in Gamma_P first at the order q, where D[q] = 0; D is then
        periodic, so the engine stops there, with every record below q."""
        calls = []
        kernel = torus_gaps._multiple_distance

        def recording(xbar, k):
            calls.append((k, kernel(xbar, k)))
            return calls[-1][1]

        monkeypatch.setattr(torus_gaps, "_multiple_distance", recording)
        alpha = AdelePoint(c, c, {}, primes)
        with within_seconds(0.5):
            ks, values = torus_gaps._records(alpha, 10**18)
        assert calls[-1][0] == order and calls[-1][1][0] == 0
        assert [k for k, _ in calls[:-1]] == ks[1:] and ks[-1] < order
        assert (ks, values) == record_walk(alpha, 3 * order)


class TestRecords:
    """`_records` against the walk that computes every D[k], and the gap count
    read off the records against the full distance matrix."""

    def test_records_are_the_strict_falls_of_the_unpruned_walk(self):
        seen = Counter()
        for alpha, K in real_bound_draws(20261021, 84, 300):
            seen["torsion"] += reduce(multiple(alpha, 11 * 7 * 5 * 3 * 2))[0] == zero_point(alpha.primes)
            seen["cofinite, nonzero default"] += (
                not alpha.primes.finite and alpha.default_value != 0)
            seen["real denominator <= 5"] += reduce(alpha)[0].at_infinity.denominator <= 5
            try:
                least = least_positive_prefix(alpha, K)
            except DegenerateOrbitError:
                with pytest.raises(DegenerateOrbitError):
                    torus_gaps._records(alpha, K)
                continue
            ks, values = torus_gaps._records(alpha, K)
            falls = [1] + [k for k in range(2, K + 1) if least[k - 1] < least[k - 2]]
            assert ks == falls, (str(alpha), K)
            assert values == [least[k - 1] for k in falls], (str(alpha), K)
            seen["compared"] += 1
        assert min(seen.values()) >= 7 and seen["compared"] >= 60, seen

    def test_slack_one_doubling_golden(self):
        """inf=2/7;default=0;2=-7 over {2} has the least slack found in a census
        of the doubling condition k_{i+2} >= 2*k_i - 1: slack 1, at the records
        3, 5 and 6.  The three gap bound holds through N = K + 1 exactly when
        that slack is never negative; at small N it is checked against
        gap_report directly."""
        alpha = AdelePoint(Fraction(2, 7), 0, {2: -7}, P2)
        ks, values = torus_gaps._records(alpha, 10**18)
        assert len(ks) == 60
        assert ks[:12] == [1, 2, 3, 5, 6, 11, 56, 112, 224, 448, 896, 1792]
        assert values[:8] == [Fraction(5, 7), Fraction(4, 7), Fraction(1, 2), Fraction(3, 7),
                              Fraction(2, 7), Fraction(1, 7), Fraction(1, 8), Fraction(1, 16)]
        slack = min((ks[i + 2] - (2 * ks[i] - 1), ks[i:i + 3]) for i in range(len(ks) - 2))
        assert slack == (1, [3, 5, 6])
        for N in range(2, 61):
            upper = sum(N // 2 < k <= N - 1 for k in ks)  # N // 2 = ceil((N - 1) / 2)
            assert gap_report(alpha, N).gap_count == 1 + upper <= 3, N

    def test_gap_count_is_one_plus_the_records_in_the_upper_half(self):
        """g_N = 1 + #{i : N - h < k_i <= N - 1}, h = (N + 1) // 2."""
        compared = 0
        for alpha, N in real_bound_draws(20261022, 42, 60):
            try:
                expected = len(set(pairwise_deltas(alpha, N)))
            except DegenerateOrbitError:
                continue
            ks, _ = torus_gaps._records(alpha, N - 1)
            h = (N + 1) // 2
            assert 1 + sum(N - h < k for k in ks) == expected, (str(alpha), N)
            compared += 1
        assert compared >= 30


class TestThreeGapCheck:
    def test_paper_instances(self):
        assert gap_report(F1_ALPHA, 52).gap_count == 3

    def test_small_instance(self):
        alpha = AdelePoint(Fraction(1, 2), 0, {}, P3)
        assert gap_report(alpha, 4).gap_count <= 3

    def test_random_sweep(self, rng):
        for _ in range(30):
            primes = random_primeset(rng)
            alpha = random_point(rng, primes, 30)
            N = rng.randint(2, 15)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            assert report.gap_count <= 3, f"three gap bound violated: {alpha}, N={N}, report={report}"


def test_distance_matrix_symmetry():
    points = list(orbit(F2_ALPHA, 5))
    for i, x in enumerate(points):
        for y in points[i:]:
            assert torus_distance(x, y) == torus_distance(y, x)
