import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    PrimeSet,
    TorusPoint,
    add_diagonal,
    gap_report,
    reduce,
    torus_distance,
    zero_point,
)
from adelic_gaps import adele, lattice
from adelic_gaps.adele import _prime_factors
from adelic_gaps.cli import main
from adelic_gaps.torus_gaps import _records

from conftest import (
    ORACLE_PRIMESETS,
    counting,
    in_child,
    random_point,
    random_primeset,
    unreduced_point,
    within_seconds,
)
from oracles import (
    _padic_abs,
    brute_force_torus_distance,
    expanded,
    multiple,
    point_difference,
    point_sum,
    prime_factors,
    reference_ambient_abs,
    reference_shifted_norm,
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

    @staticmethod
    def draw_above(rng):
        """A start for the walk, from one of three bands: below the least prime,
        among the primes below 300 that the first lists cover, or past them up to
        1500, which is also past every listed prime of a finite set.  The lists
        these draws are checked against run to 2000."""
        return rng.choice((rng.randint(-3, 1), rng.randint(2, 299), rng.randint(300, 1500)))

    def test_members_in_increasing_order(self):
        rng = random.Random(20261021)
        for primes in self.COFINITE:
            expected = self.trial_division_members(primes, 300)[:40]
            assert len(expected) == 40
            assert list(islice(primes.members(), 40)) == expected == primes.first_members(40)
            members = self.trial_division_members(primes, 2000)
            for _ in range(30):
                above = self.draw_above(rng)
                expected = [p for p in members if p > above][:40]
                assert len(expected) == 40
                assert list(islice(primes.members(above), 40)) == expected, (str(primes), above)
        finite = PrimeSet.of(3, 5, 11)
        assert list(finite.members()) == [3, 5, 11] == finite.first_members(40)
        for _ in range(30):
            above = self.draw_above(rng)
            assert list(finite.members(above)) == [p for p in (3, 5, 11) if p > above], above

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
            members = self.trial_division_members(primes, 2000)
            for _ in range(40):
                above = self.draw_above(rng)
                later = [p for p in members if p > above]
                avoid = set(rng.sample(members, rng.randint(0, min(25, len(members)))))
                avoid |= set(later[: rng.randint(0, 25)])  # skip a run of the members above
                expected = min((p for p in later if p not in avoid), default=None)
                assert primes.smallest_outside(avoid, above) == expected, (str(primes), above, sorted(avoid))
        assert PrimeSet.of(2, 5, 7).smallest_outside({2, 5, 7, 11}) is None
        assert PrimeSet.of(2, 5, 7).smallest_outside(set(), 7) is None


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

    def test_coordinates_are_stored_as_exact_fractions(self):
        """A Fraction is stored as the object given; an int, a string and a
        Fraction subclass are stored as Fractions of the base type."""
        class Sub(Fraction):
            pass

        primes = PrimeSet.of(2, 3)
        for cls in (AdelePoint, TorusPoint):
            inf, default, override = Fraction(1, 3), Fraction(5), Fraction(7, 5)
            point = cls(inf, default, {3: override}, primes)
            assert point.at_infinity is inf and point.default_value is default
            assert point.overrides[3] is override
            point = cls(Sub(1, 3), "5", {2: 7, 3: Sub(1, 5)}, primes)
            coordinates = [point.at_infinity, point.default_value, *point.overrides.values()]
            assert [type(c) for c in coordinates] == [Fraction] * 4
            assert coordinates == [Fraction(1, 3), 5, 7, Fraction(1, 5)]

    def test_rejects_each_invalid_coordinate(self):
        """The checks on every coordinate: override keys, the default, x_inf of a
        TorusPoint in [0, 1) (read off its numerator and denominator), and the
        p-integrality of a TorusPoint's overrides."""
        with pytest.raises(ValueError, match="not a prime of the prime set"):
            AdelePoint(Fraction(0), Fraction(0), {3: Fraction(1)}, P2)
        with pytest.raises(ValueError, match="not 2-integral"):
            AdelePoint(Fraction(0), Fraction(1, 2), {}, P2)
        for inf in (Fraction(1), Fraction(-1, 10**9), Fraction(7, 3), -1, "1"):
            with pytest.raises(ValueError, match=r"not in \[0,1\)"):
                TorusPoint(inf, 0, {}, P2)
        for inf in (0, Fraction(10**9 - 1, 10**9)):
            assert TorusPoint(inf, 0, {}, P2).at_infinity == inf
        with pytest.raises(ValueError, match="at prime 2 is not p-integral"):
            TorusPoint(Fraction(1, 3), 0, {2: Fraction(1, 2)}, P2)
        with pytest.raises(ValueError, match="at prime 3 is not p-integral"):
            TorusPoint(Fraction(1, 3), 0, {3: Fraction(2, 9)}, PrimeSet.all_primes())

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

    def test_cofinite_equality_is_equality_of_every_coordinate(self):
        """Seeded pairs over cofinite sets: equal exactly when the real coordinates,
        the defaults and the coordinates at every override key of either point
        agree; the default applies at every other prime of the set."""
        rng = random.Random(20261021)
        defaults = (Fraction(0), Fraction(1))
        values = defaults + (Fraction(1, 11),)
        seen = Counter()

        def draw(primes, keys):
            overrides = {p: rng.choice(values) for p in keys if rng.random() < 0.5}
            return AdelePoint(rng.choice((Fraction(1, 3), Fraction(2, 3))),
                              rng.choice(defaults), overrides, primes)

        for i in range(600):
            primes = (PrimeSet.all_primes(), PrimeSet.all_except(2),
                      PrimeSet.all_except(2, 3, 5, 7))[i % 3]
            keys = primes.first_members(3)
            x, y = draw(primes, keys), draw(primes, keys)
            keys_agree = x.at_infinity == y.at_infinity and all(
                x.coordinate(p) == y.coordinate(p) for p in {*x.overrides, *y.overrides}
            )
            same_default = x.default_value == y.default_value
            assert (x == y) == (y == x) == (keys_agree and same_default), (str(x), str(y))
            if x == y:
                assert hash(x) == hash(y), (str(x), str(y))
            seen[keys_agree, same_default] += 1
        assert len(seen) == 4 and min(seen.values()) >= 10, seen
        primes = PrimeSet.all_except(2, 3, 5, 7)
        torus = TorusPoint(Fraction(1, 3), 1, {11: 1, 13: 0}, primes)
        adele_point = AdelePoint(Fraction(1, 3), 1, {13: 0}, primes)
        assert torus == adele_point and adele_point == torus
        assert hash(torus) == hash(adele_point)
        assert torus != AdelePoint(Fraction(1, 3), 0, {11: 1, 13: 0}, primes)

    def test_caches_stay_out_of_the_fields(self):
        """A point that carries its caches, the integer pairs and the lattice
        table, reads as a fresh equal twin in repr, str, fields, equality and hash."""
        primes = PrimeSet.all_except(2)
        point = AdelePoint(Fraction(1, 3), 5, {3: Fraction(1, 9)}, primes)
        twin = AdelePoint(Fraction(1, 3), 5, {3: Fraction(1, 9)}, primes)
        assert lattice.delta_via_lattice(point, 20, 1) == expanded(gap_report(point, 20).runs)[0]
        point._pairs  # builds the pairs cache
        assert {"_pairs", "_v_min_table"} <= vars(point).keys()
        assert not vars(twin).keys() & {"_pairs", "_v_min_table"}
        assert (repr(point), str(point), dataclasses.fields(point)) == \
            (repr(twin), str(twin), dataclasses.fields(twin))
        assert point == twin and twin == point and hash(point) == hash(twin)
        assert point != AdelePoint(Fraction(1, 3), 5, {3: Fraction(2, 9)}, primes)

    def test_overrides_are_read_only(self):
        overrides = {2: Fraction(1)}
        point = AdelePoint(Fraction(351, 100), 0, overrides, P2)
        with pytest.raises(TypeError):
            point.overrides[2] = Fraction(3)
        overrides[2] = Fraction(3)
        assert point.coordinate(2) == 1


def unfactored_denominator_check():
    gamma = Fraction(1, (10**11 + 3) * (10**11 + 19))
    with within_seconds(1), pytest.raises(ValueError, match="cannot factor a 74-bit cofactor"):
        add_diagonal(AdelePoint(Fraction(1, 3), 0, {5: 1}, PrimeSet.all_except(2)), gamma)
    # every factor below the limit is found, and a prime cofactor above it
    assert _prime_factors(99989 * 99991) == (99989, 99991)
    assert _prime_factors(99991 * (10**11 + 3)) == (99991, 10**11 + 3)


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

    def test_sum_passes_the_full_validation(self):
        """The sum is built without re-validation: rebuilt through the constructor,
        each seeded sum is accepted and equal, with its overrides sorted."""
        rng = random.Random(20261106)
        for i in range(140):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            den = 1
            for p in primes.first_members(3):
                den *= p ** rng.randint(0, 2)
            total = add_diagonal(x, Fraction(rng.randint(-30, 30), den))
            assert list(total.overrides) == sorted(total.overrides), str(total)
            rebuilt = AdelePoint(total.at_infinity, total.default_value, total.overrides, primes)
            assert rebuilt == total, str(total)

    def test_large_prime_denominator_is_bounded(self):
        p = 10**20 + 39
        with within_seconds(2):
            point = add_diagonal(zero_point(PrimeSet.all_primes()), Fraction(1, p))
        assert point.coordinate(p) == Fraction(1, p)
        assert point.coordinate(2) == Fraction(1, p)
        with within_seconds(2):
            assert _prime_factors(8 * p) == (2, p)
        assert _prime_factors(10**30) == (2, 5)

    def test_cofinite_set_refuses_a_denominator_it_cannot_factor(self):
        """Trial division stops at TRIAL_DIVISION_LIMIT: a denominator with two
        12-digit prime factors is refused with ValueError, not split by 10**11
        divisions.  The check runs in a child process, killed after 5 s."""
        in_child(unfactored_denominator_check, 5)

    def test_a_repeated_refusal_is_a_cache_hit(self):
        """`_prime_factors` keeps its refusal in its cache, so the same refused
        gamma is refused again without trial division, with the same message."""
        gamma = Fraction(1, (10**11 + 3) * (10**11 + 19))
        x = AdelePoint(Fraction(1, 3), 0, {5: 1}, PrimeSet.all_except(2))
        messages = []
        for _ in range(2):
            before = _prime_factors.cache_info()
            with within_seconds(1), pytest.raises(ValueError) as refused:
                add_diagonal(x, gamma)
            messages.append(str(refused.value))
        after = _prime_factors.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert messages[0] == messages[1]
        assert messages[0].startswith("cannot factor a 74-bit cofactor")

    def test_finite_set_rejects_a_large_denominator_without_factoring(self):
        # the denominator is a product of two 12-digit primes, which trial
        # division would take minutes to split; dividing out P = {2} leaves it whole
        gamma = Fraction(1, (10**11 + 3) * (10**11 + 19))
        with within_seconds(2), pytest.raises(ValueError, match="not in Gamma_P"):
            add_diagonal(AdelePoint(Fraction(1, 3), 0, {}, P2), gamma)
        with within_seconds(2):
            point = add_diagonal(zero_point(P2), Fraction(1, 2**200))
        assert point.coordinate(2) == Fraction(1, 2**200)


class TestAmbientMetric:
    """The max metric at reduced points x, read as torus_distance(x, zero):
    there no shift beats the unshifted norm |x|."""

    def test_f1_reduced_value(self):
        x = AdelePoint(Fraction(1, 100), -179, {2: -128}, P2)
        assert torus_distance(x, zero_point(P2)) == Fraction(1, 100)

    def test_distance_to_self_is_zero(self):
        x = AdelePoint(Fraction(1, 9), 0, {3: 1}, PrimeSet.all_except(2))
        assert torus_distance(point_difference(x, x), zero_point(x.primes)) == 0

    def test_cofinite_sup_attained_at_smallest_prime(self):
        primes = PrimeSet.all_except(2)
        delta = AdelePoint(0, -1, {}, primes)
        assert torus_distance(delta, zero_point(primes)) == Fraction(1, 3)

    def test_cofinite_override_prime_can_dominate(self):
        primes = PrimeSet.all_primes()
        zero = zero_point(primes)
        # the default 2 alone: max(|2|_2 / 2, 1/3) = 1/3, at the tail prime 3
        assert torus_distance(AdelePoint(0, 2, {}, primes), zero) == Fraction(1, 3)
        # the override 1 at 2 has term |1|_2 / 2 = 1/2, above that tail
        assert torus_distance(AdelePoint(0, 2, {2: 1}, primes), zero) == Fraction(1, 2)

    def test_cofinite_tail_walk_matches_factoring_oracle(self):
        """The distance's walk over the primes dividing the default, against full factoring.

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
                if torus_distance(x, y) != reference_torus_distance(x, y):
                    mismatches.append((str(x), str(y)))
        assert mismatches == []
        assert deep >= 40


class TestIntegerKernel:
    """The integer-pair distance against the padic_abs / trial-division oracles."""

    def test_kernel_reads_only_denominators_prime_to_the_place(self, monkeypatch, capsys):
        """`_raw_abs` reads k*x - j with x the difference of two reduced points or a
        reduced point, so at every place it reads the denominator is prime to p:
        the listed primes of a finite set, the keys of `coords`, and on a cofinite
        set the tail primes up to the walk's stop.  Seeded unreduced draws run
        through `torus_distance`, `gap_report` and `lattice-check`, whose walk
        calls the norm from `lattice`."""
        reads = Counter()
        raw_abs = adele._raw_abs

        def spy(x, primes, k, j, *bound):
            _, (c0, d0), coords = x
            default = k * c0 - j * d0, d0
            if primes.finite:
                places = [("listed", p, coords.get(p, default)) for p in primes.listed]
            else:
                places = [("coords key", p, pair) for p, pair in coords.items()]
                avoid = set(coords)
                while default[0]:
                    p = primes.smallest_outside(avoid)
                    places.append(("tail", p, default))
                    if default[0] % p:
                        break
                    avoid.add(p)
            for kind, p, (_, den) in places:
                assert den % p, (kind, p, x, k, j, str(primes))
                reads[kind, den > 1] += 1
            return raw_abs(x, primes, k, j, *bound)

        for module in (adele, lattice):  # the distances, and the walk of lattice-check
            monkeypatch.setattr(module, "_raw_abs", spy)
        rng = random.Random(20261019)
        for i in range(210):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            torus_distance(x, y)
            N = rng.randint(2, 20)
            try:
                gap_report(x, N)
            except DegenerateOrbitError:
                pass
            if i % 3 == 0:
                argv = ["lattice-check", "--primes", str(primes), "--alpha", str(y), "--N", str(N)]
                assert main(argv) in (0, 1), str(y)  # 1: a degenerate orbit of y
        capsys.readouterr()
        assert len(reads) == 6 and min(reads.values()) >= 20, reads

    def test_bounded_norm_is_exact_below_the_bound(self, monkeypatch):
        """`_raw_abs` on a reduced point's pairs is the norm of k*xbar - j, and with
        a bound it is that norm when the norm is below the bound, and a pair at or
        above the bound otherwise.  Bounds are set at the norm and just above and
        below it; a cofinite tail walk that stops at the bound is counted by its
        `smallest_outside` steps, against those of the unbounded norm."""
        steps = []
        smallest_outside = PrimeSet.smallest_outside
        monkeypatch.setattr(PrimeSet, "smallest_outside",
                            lambda primes, *args: steps.append(1) or smallest_outside(primes, *args))
        rng = random.Random(20261020)
        seen, near = Counter(), Fraction(1, 10**12)
        for i in range(35):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            xbar = reduce(unreduced_point(rng, primes, 30))[0]
            x = xbar._pairs
            for k in range(61):
                m = k * xbar.at_infinity.numerator // xbar.at_infinity.denominator
                for j in (m, m + 1):
                    norm = reference_shifted_norm(xbar, k, j)
                    steps.clear()
                    assert Fraction(*adele._raw_abs(x, primes, k, j)) == norm, (str(xbar), k, j)
                    seen["unbounded"] += 1
                    walked = len(steps)
                    tail = norm > reference_shifted_norm(dataclasses.replace(xbar, default_value=0), k, j)
                    seen["norm set in the cofinite tail"] += not primes.finite and tail
                    for bound in (norm, norm + near, norm - near) if norm else (near,):
                        steps.clear()
                        num, den = adele._raw_abs(x, primes, k, j, (bound.numerator, bound.denominator))
                        value = Fraction(num, den)
                        if norm < bound:
                            assert value == norm, (str(xbar), k, j, bound)
                            seen["below the bound"] += 1
                        else:
                            assert bound <= value <= norm, (str(xbar), k, j, bound)
                            seen["at or above the bound"] += 1
                            seen["stopped inside the cofinite tail"] += 0 < len(steps) < walked
        assert min(seen.values()) >= 20, seen

    def test_cofinite_tail_walk_is_linear(self, monkeypatch):
        """Each step of the cofinite tail walk resumes the prime search at the last
        prime, so one norm tests each integer up to its last prime once: at most
        one `next_prime` call per step, per excluded prime and per `coords` key,
        plus the first.  A walk that restarted at 2 at every step made 8113 calls
        for the 122 steps at the last record below 10^300 of the CI cofinite
        alpha, and 7626 for the 124 of `all`."""
        counts = Counter()
        monkeypatch.setattr(adele, "next_prime", counting(counts, "next_prime", adele.next_prime))
        monkeypatch.setattr(PrimeSet, "smallest_outside",
                            counting(counts, "steps", PrimeSet.smallest_outside))
        for alpha in (AdelePoint(Fraction(-7, 3), 10, {11: Fraction(1, 4), 13: 5},
                                 PrimeSet.all_except(2, 3, 5, 7)),
                      AdelePoint(Fraction(1, 3), 1, {}, PrimeSet.all_primes())):
            ks, values = _records(alpha, 10**300)
            xbar = reduce(alpha)[0]
            (a, b), _, coords = x = xbar._pairs
            counts.clear()
            norm = adele._raw_abs(x, alpha.primes, ks[-1], ks[-1] * a // b)
            assert Fraction(*norm) == values[-1], str(alpha)
            assert counts["steps"] > 100, (str(alpha), counts)
            assert counts["next_prime"] <= (counts["steps"] + len(alpha.primes.listed)
                                            + len(coords) + 1), (str(alpha), counts)

    def test_torus_distance_on_unreduced_pairs(self):
        rng = random.Random(20261020)
        for i in range(350):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            x = unreduced_point(rng, primes, 30)
            y = unreduced_point(rng, primes, 30)
            assert torus_distance(x, y) == reference_torus_distance(x, y), (str(x), str(y))

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
            shift_wins += distance < reference_ambient_abs(point_difference(reduce(x)[0], reduce(y)[0]))
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
        assert adele._fractional_p_part(Fraction(1, 2), 2) == (1, 2)
        assert adele._fractional_p_part(Fraction(5, 12), 2) == (3, 4)  # 5/12 - 3/4 = -1/3
        assert adele._fractional_p_part(Fraction(-7, 3), 2) == (0, 1)
        assert adele._fractional_p_part(Fraction(0), 5) == (0, 1)
        x = AdelePoint(0, 0, {2: Fraction(1, 2)}, P2)
        point, gamma = reduce(x)
        assert gamma == Fraction(-1, 2)
        assert point.at_infinity == Fraction(1, 2)
        assert point.default_value == Fraction(1, 2)
        # xbar = x - gamma exactly, coordinate by coordinate
        assert point == add_diagonal(x, -gamma)

    def test_gamma_matches_a_fraction_oracle(self):
        """gamma, summed as integers, equals the sum of the fractional p-parts,
        each the c in [0, p^k) found by search with Fraction arithmetic, plus
        the floor of x_inf less that sum; and the point is x - gamma.  Seeded
        `unreduced_point` draws over `ORACLE_PRIMESETS`."""
        rng = random.Random(20261125)
        for i in range(700):
            x = unreduced_point(rng, ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)], 30)
            parts = Fraction(0)
            for p, v in x.overrides.items():
                pk = 1
                while v.denominator % (pk * p) == 0:
                    pk *= p
                parts += next(Fraction(c, pk) for c in range(pk)
                              if _padic_abs(v - Fraction(c, pk), p) <= 1)
            point, gamma = reduce(x)
            assert gamma == parts + math.floor(x.at_infinity - parts), str(x)
            assert point == add_diagonal(x, -gamma), str(x)

    def test_validates_its_result_once(self, monkeypatch):
        """`add_diagonal` checks only gamma, so one reduce runs the point
        validation once: in the constructor of the TorusPoint it returns."""
        rng = random.Random(20261107)
        points = [unreduced_point(rng, ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)], 30)
                  for i in range(70)]
        counts = Counter()
        monkeypatch.setattr(AdelePoint, "__post_init__",
                            counting(counts, "__post_init__", AdelePoint.__post_init__))
        for x in points:
            counts.clear()
            reduce(x)
            assert counts["__post_init__"] == 1, str(x)

    def test_returns_a_torus_point_itself(self):
        """A reduced point is returned as it is, with gamma = 0: seeded
        `unreduced_point` draws over `ORACLE_PRIMESETS`, reduced once first."""
        rng = random.Random(20261123)
        for i in range(70):
            xbar = reduce(unreduced_point(rng, ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)], 30))[0]
            again, gamma = reduce(xbar)
            assert again is xbar and gamma == 0, str(xbar)
        zero = zero_point(PrimeSet.all_primes())
        assert reduce(zero)[0] is zero

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
        passes both arguments through `reduce`, which shifts only those that
        are not TorusPoints (one `add_diagonal` each) and returns a TorusPoint
        as it is."""
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
        add_diagonal_ = adele.add_diagonal
        monkeypatch.setattr(adele, "add_diagonal",
                            lambda x, g: calls.append(x) or add_diagonal_(x, g))
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
    """add_diagonal puts gamma at every coordinate, with the primes of its
    denominator among the overrides, where the reference norm reads them."""
    assert reference_ambient_abs(add_diagonal(zero_point(P2), 1)) == 1
    assert reference_ambient_abs(add_diagonal(zero_point(P2), Fraction(1, 2))) == 2
    assert reference_ambient_abs(add_diagonal(zero_point(PrimeSet.all_primes()), Fraction(1, 3))) == 1
