import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from adelic_gaps import (
    AdelePoint,
    PrimeSet,
    TorusPoint,
    add_diagonal,
    reduce,
    torus_distance,
    zero_point,
)
from adelic_gaps import adele
from adelic_gaps.adele import _prime_factors, ambient_abs

from conftest import ORACLE_PRIMESETS, random_point, random_primeset, unreduced_point, within_seconds
from oracles import (
    brute_force_torus_distance,
    multiple,
    point_difference,
    point_sum,
    prime_factors,
    reference_ambient_abs,
    reference_torus_distance,
)

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)


class TestPrimeSet:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="invalid prime"):
            PrimeSet.of(4)
        with pytest.raises(ValueError, match="invalid prime"):
            PrimeSet.all_except(9)

    def test_rejects_empty_finite(self):
        with pytest.raises(ValueError, match="non-empty"):
            PrimeSet(True, ())

    def test_rejects_unsorted_or_duplicates(self):
        with pytest.raises(ValueError):
            PrimeSet(True, (3, 2))
        with pytest.raises(ValueError):
            PrimeSet(True, (2, 2))

    def test_membership_and_smallest(self):
        assert 2 in P2 and 3 not in P2
        cofinite = PrimeSet.all_except(2, 5)
        assert 3 in cofinite and 7 in cofinite
        assert 5 not in cofinite and 4 not in cofinite
        assert cofinite.smallest() == 3
        assert PrimeSet.all_primes().smallest() == 2
        assert cofinite.first_members(4) == [3, 7, 11, 13]

    COFINITE = (PrimeSet.all_primes(), PrimeSet.all_except(2), PrimeSet.all_except(2, 3, 5, 7))

    @staticmethod
    def trial_division_members(primes, bound):
        primes_below = [n for n in range(2, bound) if prime_factors(n) == [n]]
        return [n for n in primes_below if (n in primes.listed) == primes.finite]

    def test_members_in_increasing_order(self):
        for primes in self.COFINITE:
            expected = self.trial_division_members(primes, 300)[:40]
            assert len(expected) == 40
            assert list(islice(primes.members(), 40)) == expected == primes.first_members(40)
        finite = PrimeSet.of(3, 5, 11)
        assert list(finite.members()) == [3, 5, 11] == finite.first_members(40)

    def test_smallest_outside_matches_brute_force(self):
        rng = random.Random(20261022)
        for primes in (*self.COFINITE, PrimeSet.of(2, 5, 7), PrimeSet.of(3, 5, 11, 13)):
            members = self.trial_division_members(primes, 300)
            for _ in range(40):
                avoid = set(rng.sample(members, rng.randint(0, len(members))))
                if not primes.finite:
                    avoid = set(sorted(avoid)[: rng.randint(0, 25)])
                expected = min((p for p in members if p not in avoid), default=None)
                assert primes.smallest_outside(avoid) == expected, (str(primes), sorted(avoid))
        assert PrimeSet.of(2, 5, 7).smallest_outside({2, 5, 7, 11}) is None


class TestMakePoint:
    def test_f1_point_valid(self):
        point = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
        assert point.coordinate(2) == 1

    def test_rejects_non_integral_default(self):
        with pytest.raises(ValueError, match="not 2-integral"):
            AdelePoint(Fraction(1, 2), Fraction(1, 2), {}, P2)

    def test_i1_point_valid(self):
        point = AdelePoint(Fraction(1, 9), 0, {3: 1}, PrimeSet.all_except(2))
        assert point.coordinate(3) == 1
        assert point.coordinate(7) == 0

    def test_rejects_override_outside_primes(self):
        with pytest.raises(ValueError, match="not a prime of the prime set"):
            AdelePoint(0, 0, {3: 1}, P2)
        with pytest.raises(ValueError, match="not a prime of the prime set"):
            AdelePoint(0, 0, {4: 1}, P2)

    def test_cofinite_default_denominator_needs_overrides(self):
        everything = PrimeSet.all_primes()
        assert AdelePoint(0, Fraction(1, 6), {2: 1, 3: 0}, everything).coordinate(5) == Fraction(1, 6)
        point = AdelePoint(0, Fraction(1, 12), {2: 1}, PrimeSet.all_except(3))
        assert point.coordinate(5) == Fraction(1, 12)
        with pytest.raises(ValueError, match="not integral at a prime of the set"):
            AdelePoint(0, Fraction(1, 6), {2: 1}, everything)
        with pytest.raises(ValueError, match="not integral at a prime of the set"):
            AdelePoint(0, Fraction(1, 6), {}, PrimeSet.all_except(2))

    def test_equal_points_hash_equal(self):
        primes = PrimeSet.of(2, 3)
        pairs = [
            (AdelePoint(Fraction(1, 3), 0, {2: Fraction(1, 2), 3: 1}, primes),
             AdelePoint(Fraction(1, 3), 0, {3: 1, 2: Fraction(1, 2)}, primes)),
            (AdelePoint(Fraction(1, 3), 2, {3: 2}, primes), AdelePoint(Fraction(1, 3), 2, {}, primes)),
            (TorusPoint(Fraction(1, 3), 0, {3: 1}, primes), AdelePoint(Fraction(1, 3), 0, {3: 1}, primes)),
            (TorusPoint._trusted(Fraction(2, 3), Fraction(0), {3: Fraction(1)}, primes),
             AdelePoint(Fraction(2, 3), 0, {3: 1, 2: 0}, primes)),
        ]
        for x, y in pairs:
            assert x == y
            assert hash(x) == hash(y)
            assert hash(x) == hash(y)  # the second hash of each is its first
        assert len({x for pair in pairs for x in pair}) == len(pairs)

    def test_finite_set_equality_ignores_a_default_that_applies_at_no_prime(self):
        for primes, overrides in ((PrimeSet.of(2), {2: 1}),
                                  (PrimeSet.of(2, 3), {2: 1, 3: Fraction(1, 3)})):
            x = AdelePoint(Fraction(1, 3), 0, overrides, primes)
            y = AdelePoint(Fraction(1, 3), 5, overrides, primes)
            assert torus_distance(x, y) == 0
            assert x == y and y == x
            assert hash(x) == hash(y)
            assert len({x, y}) == 1

    def test_finite_set_equality_is_equality_of_every_coordinate(self):
        """Seeded pairs over finite sets: equal exactly when the real coordinates
        and the coordinates at every listed prime agree."""
        rng = random.Random(20261020)
        values = (Fraction(0), Fraction(1), Fraction(3), Fraction(1, 11))
        seen = Counter()

        def draw(primes):
            overrides = {p: rng.choice(values) for p in primes.listed if rng.random() < 0.6}
            return AdelePoint(rng.choice((Fraction(1, 3), Fraction(2, 3))),
                              rng.choice(values), overrides, primes)

        for i in range(600):
            primes = (PrimeSet.of(2), PrimeSet.of(3, 5), PrimeSet.of(2, 5, 7))[i % 3]
            x, y = draw(primes), draw(primes)
            agree = x.at_infinity == y.at_infinity and all(
                x.coordinate(p) == y.coordinate(p) for p in primes.listed
            )
            assert (x == y) == (y == x) == agree, (str(x), str(y))
            if agree:
                assert hash(x) == hash(y), (str(x), str(y))
            seen[agree, x.default_value == y.default_value] += 1
        assert len(seen) == 4 and min(seen.values()) >= 10, seen

    def test_hash_is_computed_once_and_stays_out_of_the_fields(self):
        class Counted(Fraction):
            hashes = 0

            def __hash__(self):
                Counted.hashes += 1
                return super().__hash__()

        primes = PrimeSet.all_except(2)
        point = AdelePoint._trusted(Counted(1, 3), Fraction(5), {3: Fraction(1, 9)}, primes)
        before = (repr(point), str(point), dataclasses.fields(point))
        twin = AdelePoint(Fraction(1, 3), 5, {3: Fraction(1, 9)}, primes)
        first = hash(point)
        assert Counted.hashes == 1
        assert hash(point) == first == hash(twin)
        assert Counted.hashes == 1
        assert (repr(point), str(point), dataclasses.fields(point)) == before
        assert point == twin and twin == point
        assert point != AdelePoint(Fraction(1, 3), 5, {3: Fraction(2, 9)}, primes)

    def test_overrides_are_read_only(self):
        overrides = {2: Fraction(1)}
        point = AdelePoint(Fraction(351, 100), 0, overrides, P2)
        with pytest.raises(TypeError):
            point.overrides[2] = Fraction(3)
        overrides[2] = Fraction(3)
        assert point.coordinate(2) == 1


class TestAddDiagonal:
    def test_f1_reduction_step(self):
        x = AdelePoint(Fraction(17901, 100), 0, {2: 51}, P2)
        shifted = add_diagonal(x, -179)
        assert shifted == AdelePoint(Fraction(1, 100), -179, {2: -128}, P2)

    def test_zero_is_identity(self):
        x = AdelePoint(Fraction(1, 9), 0, {3: 1}, PrimeSet.all_except(2))
        assert add_diagonal(x, 0) == x

    def test_rejects_gamma_outside_group(self):
        with pytest.raises(ValueError, match="not in Gamma_P"):
            add_diagonal(zero_point(P3), Fraction(1, 2))

    def test_extends_overrides_for_denominator_primes(self):
        x = zero_point(P2)
        y = add_diagonal(x, Fraction(1, 2))
        assert y.coordinate(2) == Fraction(1, 2)
        assert 2 in y.overrides

    def test_large_prime_denominator_is_bounded(self):
        p = 10**20 + 39
        with within_seconds(2):
            point = add_diagonal(zero_point(PrimeSet.all_primes()), Fraction(1, p))
        assert point.coordinate(p) == Fraction(1, p)
        assert point.coordinate(2) == Fraction(1, p)
        with within_seconds(2):
            assert _prime_factors(8 * p) == (2, p)
        assert _prime_factors(10**30) == (2, 5)


class TestAmbientMetric:
    def test_f1_reduced_value(self):
        x = AdelePoint(Fraction(1, 100), -179, {2: -128}, P2)
        assert ambient_abs(x) == Fraction(1, 100)

    def test_distance_to_self_is_zero(self):
        x = AdelePoint(Fraction(1, 9), 0, {3: 1}, PrimeSet.all_except(2))
        assert ambient_abs(point_difference(x, x)) == 0

    def test_cofinite_sup_attained_at_smallest_prime(self):
        primes = PrimeSet.all_except(2)
        delta = AdelePoint(0, -1, {}, primes)
        assert ambient_abs(delta) == Fraction(1, 3)

    def test_cofinite_override_prime_can_dominate(self):
        primes = PrimeSet.all_primes()
        x = AdelePoint(0, 0, {2: Fraction(1, 4)}, primes)
        # |1/4|_2 / 2 = 2
        assert ambient_abs(x) == 2

    def test_cofinite_tail_walk_matches_factoring_oracle(self):
        """The norm's walk over the primes dividing the default, against full factoring.

        Defaults have 7-10 digits; a third are multiples of 2*3*5*7*11 and a
        third of 2*3*...*23, so the walk passes many primes before the first
        that does not divide.  Half the defaults are divided by a power of an
        overridden prime, and overrides are integers or rationals.  With inf
        in [0, 1) and integer overrides reduce leaves the default as it is, so
        the difference of a pair keeps the common factor.
        """
        rng = random.Random(20261018)
        mismatches, deep = [], 0
        for spec in (PrimeSet.all_primes(), PrimeSet.all_except(2), PrimeSet.all_except(2, 3, 5, 7)):
            members = spec.first_members(4)
            for i in range(60):
                step = (1, 2310, 223092870)[i % 3]
                pair = []
                for _ in range(2):
                    digits = rng.randint(7, 10)
                    default = max(1, rng.randint(10 ** (digits - 1), 10**digits - 1) // step) * step
                    overrides = {}
                    for p in members:
                        if rng.random() < 0.5:
                            value = rng.randint(-60, 60)
                            overrides[p] = Fraction(value, rng.randint(1, 12)) if i % 2 else value
                    if overrides and rng.random() < 0.5:
                        default = Fraction(default, min(overrides) ** rng.randint(1, 2))
                    if i % 2:
                        inf = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
                    else:
                        inf = Fraction(rng.randint(0, 59), 60)
                    pair.append(AdelePoint(inf, rng.choice((-1, 1)) * default, overrides, spec))
                x, y = pair
                deep += point_difference(x, y).default_value.numerator % 2310 == 0
                for point in (x, point_difference(x, y)):
                    if ambient_abs(point) != reference_ambient_abs(point):
                        mismatches.append(("ambient_abs", str(point)))
                if torus_distance(x, y) != reference_torus_distance(x, y):
                    mismatches.append(("torus_distance", str(x), str(y)))
        assert mismatches == []
        assert deep >= 40


class TestIntegerKernel:
    """The integer-pair norm and distance against the padic_abs / trial-division oracles."""

    def test_ambient_abs_on_unreduced_points(self):
        rng = random.Random(20261019)
        seen = Counter()
        for i in range(700):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            assert ambient_abs(x) == reference_ambient_abs(x), str(x)
            values = list(x.overrides.values())
            seen["finite, a coordinate not p-integral"] += primes.finite and any(
                v.denominator % p == 0 for p, v in x.overrides.items())
            seen["override 0"] += Fraction(0) in values
            seen["override = default"] += x.default_value in values
            seen["cofinite, nonzero default"] += not primes.finite and x.default_value != 0
        assert min(seen.values()) >= 20, seen

    def test_torus_distance_on_unreduced_pairs(self):
        rng = random.Random(20261020)
        for i in range(350):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            assert torus_distance(x, y) == reference_torus_distance(x, y), (str(x), str(y))
            difference = point_difference(x, y)
            assert ambient_abs(difference) == reference_ambient_abs(difference), (str(x), str(y))

    def test_distance_takes_at_most_one_shifted_norm(self, monkeypatch):
        """On reduced points only the shift by sign(D_inf) can beat |D|, and only when
        1 - |D_inf| < |D|: a distance takes one norm, or two when that shift is tried."""
        calls = []
        raw_abs = adele._raw_abs
        monkeypatch.setattr(adele, "_raw_abs", lambda *args: calls.append(args) or raw_abs(*args))
        rng = random.Random(20261021)
        norms_per_distance, shift_wins = Counter(), 0
        for i in range(210):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            calls.clear()
            distance = torus_distance(x, y)
            norms_per_distance[len(calls)] += 1
            assert distance == reference_torus_distance(x, y), (str(x), str(y))
            shift_wins += distance < ambient_abs(point_difference(reduce(x)[0], reduce(y)[0]))
        assert set(norms_per_distance) == {1, 2}, norms_per_distance
        assert min(norms_per_distance.values()) >= 20, norms_per_distance
        assert shift_wins >= 5


class TestReduce:
    def test_f1_multiple(self):
        x = AdelePoint(Fraction(17901, 100), 0, {2: 51}, P2)
        point, gamma = reduce(x)
        assert gamma == 179
        assert point == AdelePoint(Fraction(1, 100), -179, {2: -128}, P2)

    def test_idempotent(self, rng):
        for _ in range(50):
            primes = random_primeset(rng)
            point, gamma = reduce(random_point(rng, primes, 30))
            again, gamma2 = reduce(point)
            assert gamma2 == 0
            assert again == point

    def test_fractional_p_part(self):
        x = AdelePoint(0, 0, {2: Fraction(1, 2)}, P2)
        point, gamma = reduce(x)
        assert gamma == Fraction(-1, 2)
        assert point.at_infinity == Fraction(1, 2)
        assert point.default_value == Fraction(1, 2)
        # xbar = x - gamma exactly, coordinate by coordinate
        assert point == add_diagonal(x, -gamma)

    def test_reduction_is_exact_translate(self, rng):
        for _ in range(50):
            primes = random_primeset(rng)
            x = random_point(rng, primes, 30)
            point, gamma = reduce(x)
            assert point == add_diagonal(x, -gamma)
            assert isinstance(point, TorusPoint)


class TestTorusDistance:
    def test_f1_first_gap(self):
        alpha = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
        x = multiple(alpha, 51)
        assert torus_distance(x, zero_point(P2)) == Fraction(1, 100)

    def test_f2_first_gap(self):
        alpha = AdelePoint(Fraction(16, 5), 0, {3: 1}, P3)
        x = multiple(alpha, 4)
        assert torus_distance(x, zero_point(P3)) == Fraction(1, 5)

    def test_distance_to_self_is_zero(self):
        x = AdelePoint(Fraction(3, 7), 5, {2: Fraction(1, 3)}, P2)
        assert torus_distance(x, x) == 0

    def test_mismatched_primesets_rejected(self):
        with pytest.raises(ValueError, match="different prime sets"):
            torus_distance(zero_point(P2), zero_point(P3))

    def test_half_integral_coordinate(self):
        x = AdelePoint(0, 0, {2: Fraction(1, 2)}, P2)
        assert torus_distance(x, zero_point(P2)) == Fraction(1, 2)

    def test_zero_point_is_a_torus_point(self):
        for primes in ORACLE_PRIMESETS:
            zero, plain = zero_point(primes), AdelePoint(0, 0, {}, primes)
            assert isinstance(zero, TorusPoint)
            assert zero == plain and plain == zero
            assert hash(zero) == hash(plain)

    def test_torus_points_are_not_reduced_again(self, monkeypatch):
        """A TorusPoint already lies in the fundamental domain: torus_distance
        reduces only its arguments that are not TorusPoints."""
        rng = random.Random(20261102)
        cases = []
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            zero = AdelePoint(0, 0, {}, primes)
            cases.append((x, y, reduce(x)[0], reduce(y)[0], reference_torus_distance(x, y),
                          reference_torus_distance(x, zero)))
        calls = []
        reduce_ = adele.reduce
        monkeypatch.setattr(adele, "reduce", lambda x: calls.append(x) or reduce_(x))
        for x, y, xbar, ybar, expected, to_zero in cases:
            assert torus_distance(xbar, ybar) == expected, (str(x), str(y))
            assert torus_distance(xbar, zero_point(x.primes)) == to_zero, str(x)
            assert calls == []
            assert torus_distance(xbar, y) == expected, (str(x), str(y))
            assert calls == [y]
            calls.clear()


class TestBruteForceOracle:
    def test_f1_agrees(self):
        alpha = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
        xbar, _ = reduce(multiple(alpha, 51))
        z = zero_point(P2)
        assert brute_force_torus_distance(xbar, z, 256) == Fraction(1, 100)

    def test_height_bound_one_still_covers_unit_shifts(self):
        x, _ = reduce(AdelePoint(Fraction(99, 100), 1, {}, P2))
        z = zero_point(P2)
        assert brute_force_torus_distance(x, z, 1) == Fraction(1, 100)

    def test_reduces_unreduced_inputs(self):
        # x - y needs the shift 17/4, above height 8; without reducing first the
        # oracle returned 41/12, above the diameter bound 1
        x = AdelePoint(Fraction(17, 6), 3, {2: Fraction(5, 4)}, P2)
        y = AdelePoint(Fraction(-7, 3), 0, {}, P2)
        assert torus_distance(x, y) == Fraction(1, 4)
        assert brute_force_torus_distance(x, y, 8) == Fraction(1, 4)

    def test_matches_quotient_distance_on_reduced_pairs(self, rng):
        for _ in range(40):
            primes = random_primeset(rng)
            x, _ = reduce(random_point(rng, primes, 30))
            y, _ = reduce(random_point(rng, primes, 30))
            assert torus_distance(x, y) == brute_force_torus_distance(x, y, 8)

    def test_matches_quotient_distance_on_nonzero_defaults(self):
        """The Gamma_P search on unreduced points with nonzero defaults, over finite
        sets and cofinite ones, `all-except:2,3,5,7` among them."""
        rng = random.Random(20261104)
        differing_defaults = 0
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            assert brute_force_torus_distance(x, y, 16) == torus_distance(x, y), (str(x), str(y))
            differing_defaults += not primes.finite and (
                reduce(x)[0].default_value != reduce(y)[0].default_value)
        assert differing_defaults >= 40


class TestMetricProperties:
    def test_symmetry_and_triangle(self, rng):
        for _ in range(60):
            primes = random_primeset(rng)
            x = random_point(rng, primes, 30)
            y = random_point(rng, primes, 30)
            z = random_point(rng, primes, 30)
            dxy = torus_distance(x, y)
            assert dxy == torus_distance(y, x)
            assert torus_distance(x, z) <= dxy + torus_distance(y, z)

    def test_zero_iff_same_coset(self, rng):
        for _ in range(40):
            primes = random_primeset(rng)
            x = random_point(rng, primes, 30)
            assert torus_distance(x, add_diagonal(x, 7)) == 0
            y = random_point(rng, primes, 30)
            if reduce(x)[0] != reduce(y)[0]:
                assert torus_distance(x, y) > 0

    def test_translation_invariance(self, rng):
        for _ in range(40):
            primes = random_primeset(rng)
            x = random_point(rng, primes, 30)
            y = random_point(rng, primes, 30)
            t = random_point(rng, primes, 30)
            assert torus_distance(point_sum(x, t), point_sum(y, t)) == torus_distance(x, y)

    def test_diameter_bound(self, rng):
        for _ in range(60):
            primes = random_primeset(rng)
            x, _ = reduce(random_point(rng, primes, 30))
            y, _ = reduce(random_point(rng, primes, 30))
            d = torus_distance(x, y)
            if primes.finite:
                assert d <= 1
            else:
                assert d < 1


def test_diagonal_point_norm():
    assert ambient_abs(add_diagonal(zero_point(P2), 1)) == 1
    assert ambient_abs(add_diagonal(zero_point(P2), Fraction(1, 2))) == 2
    assert ambient_abs(add_diagonal(zero_point(PrimeSet.all_primes()), Fraction(1, 3))) == 1
