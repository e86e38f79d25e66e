import random
from collections import Counter
from fractions import Fraction

import pytest

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
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

from conftest import ORACLE_PRIMESETS, random_point, random_primeset, real_bound_draws, unreduced_point
from oracles import (
    least_positive_prefix,
    multiple,
    prefix_min_deltas,
    real_bound,
    reference_torus_distance,
)

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)

F1_ALPHA = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
F2_ALPHA = AdelePoint(Fraction(16, 5), 0, {3: 1}, P3)


class TestOrbit:
    def test_f2_orbit(self):
        points = orbit(F2_ALPHA, 5)
        assert len(points) == 5
        xi4 = points[3]
        assert xi4.at_infinity == Fraction(4, 5)
        # 3-adic coordinate of 4*alpha shifted by -12: 4 - 12 = -8, still 3-integral
        assert xi4.coordinate(3) == -8

    def test_single_point(self):
        points = orbit(F1_ALPHA, 1)
        assert len(points) == 1
        assert points[0] == reduce(F1_ALPHA)[0]

    def test_zero_alpha_collapses(self):
        zero = AdelePoint(0, 0, {}, P2)
        points = orbit(zero, 4)
        assert all(p == points[0] for p in points)

    def test_rejects_bad_N(self):
        with pytest.raises(ValueError):
            orbit(F1_ALPHA, 0)

    def test_steps_match_per_point_reduction(self):
        """The stepped orbit against reducing each n*alpha on its own, field by field."""
        rng = random.Random(20261018)
        seen = Counter()
        for i in range(280):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha = unreduced_point(rng, primes, 30)
            N = rng.randint(1, 60)
            points = orbit(alpha, N)
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


class TestNnDistance:
    def test_f1_values(self):
        assert gap_report(F1_ALPHA, 52).deltas[2 - 1] == Fraction(3, 20)

    def test_f2_values(self):
        assert gap_report(F2_ALPHA, 5).deltas[3 - 1] == Fraction(4, 5)

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
        assert set(report.deltas) == {Fraction(2, 7)}

    def test_invariants(self):
        report = gap_report(F2_ALPHA, 5)
        assert report.gap_count == len(report.distinct_gaps)
        assert set(report.deltas) == set(report.distinct_gaps)
        assert all(d > 0 for d in report.deltas)
        assert all(report.deltas[n - 1] == g for g, n in report.witnesses.items())

    def test_degenerate_orbit_propagates(self):
        diagonal = AdelePoint(Fraction(3), 3, {}, P2)  # the coset of 3 in Gamma_P
        with pytest.raises(DegenerateOrbitError):
            gap_report(diagonal, 4)

    def test_duplicate_orbit_points_are_skipped_not_fatal(self):
        # 3*alpha is the zero coset, so xi_1 = xi_4 gives zero distances, but
        # positive distances remain and the gaps stay defined
        alpha = AdelePoint(Fraction(1, 3), Fraction(1, 3), {}, P2)
        report = gap_report(alpha, 4)
        assert all(d > 0 for d in report.deltas)
        assert torus_distance(orbit(alpha, 4)[0], orbit(alpha, 4)[3]) == 0

    def test_counts_one_reduce_and_the_distances_the_real_bound_lets_through(self, monkeypatch):
        """gap_report reduces alpha once, builds no validated point per orbit point,
        and computes D[k] at k = 1 and at each 2 <= k <= N - 1 whose real bound
        ||k * abar_inf|| is below the least positive D[j], j < k."""
        cofinite = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())
        expected = {}
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            for N in (2, 9, 60):
                least = least_positive_prefix(alpha, N - 1)
                expected[str(alpha), N] = 1 + sum(
                    real_bound(alpha, k) < least[k - 2] for k in range(2, N)
                )
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        counted_reduce = counting("reduce", adele.reduce)
        for module in (adele, torus_gaps):
            monkeypatch.setattr(module, "reduce", counted_reduce)
        monkeypatch.setattr(torus_gaps, "_reduced_distance",
                            counting("_reduced_distance", torus_gaps._reduced_distance))
        monkeypatch.setattr(AdelePoint, "__post_init__",
                            counting("__post_init__", AdelePoint.__post_init__))
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            constructions = set()
            for N in (2, 9, 60):
                counts.clear()
                gap_report(alpha, N)
                assert counts["reduce"] == 1
                assert counts["_reduced_distance"] == expected[str(alpha), N], (str(alpha), N)
                constructions.add(counts["__post_init__"])
            assert len(constructions) == 1, (str(alpha), constructions)
        assert expected[str(F1_ALPHA), 60] < 60 - 1

    def test_distinct_gaps_and_witnesses_match_full_walk(self):
        """The one walk over the first half of the deltas against sorting all N
        of them and taking each value's first index in order over every n."""
        rng = random.Random(20261119)
        checked = 0
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha, N = unreduced_point(rng, primes, 30), rng.randint(2, 60)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            first = {}
            for n, d in enumerate(report.deltas, start=1):
                first.setdefault(d, n)
            assert report.distinct_gaps == sorted(set(report.deltas)), (str(alpha), N)
            assert list(report.witnesses.items()) == list(first.items()), (str(alpha), N)
            assert report.gap_count == len(first)
            checked += 1
        assert checked > 100

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
            assert a.deltas == b.deltas


class TestRealBound:
    """Both prefix-minimum walks skip a k whose real bound ||k * abar_inf||
    reaches the running minimum; the lemma and the walk against the oracles."""

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
            assert gap_report(alpha, N).deltas == expected, (str(alpha), N)
            compared += 1
        assert compared >= 20


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
    points = orbit(F2_ALPHA, 5)
    for i, x in enumerate(points):
        for y in points[i:]:
            assert torus_distance(x, y) == torus_distance(y, x)
