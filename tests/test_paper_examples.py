import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from adelic_gaps import (
    AdelePoint,
    PrimeSet,
    default_instances,
    gap_report,
    reproduce_all,
    sharp_instance,
)
from adelic_gaps.paper_examples import reproduce_instance

from conftest import within_seconds
from oracles import expanded, pairwise_deltas


class TestBuilders:
    def test_f1_fields(self):
        inst = sharp_instance(PrimeSet.of(2))
        assert inst.label == "F1"
        assert inst.N == 52
        assert dict(inst.expected) == {
            1: Fraction(1, 100),
            2: Fraction(3, 20),
            18: Fraction(4, 25),
        }
        g_rows = [r for r in reproduce_instance(inst) if r.quantity == "g_N"]
        assert [(r.expected, r.computed) for r in g_rows] == [("3", "3")]

    def test_f2_fields(self):
        inst = sharp_instance(PrimeSet.of(3))
        assert inst.label == "F2"
        assert dict(inst.expected) == {1: Fraction(1, 5), 2: Fraction(3, 5), 3: Fraction(4, 5)}

    def test_f3_single_prime(self):
        inst = sharp_instance(PrimeSet.of(5))
        assert inst.label == "F3[5]"
        assert inst.N == 6
        assert inst.alpha.at_infinity == Fraction(1, 20)
        assert dict(inst.expected) == {1: Fraction(1, 4), 2: Fraction(4, 5), 3: Fraction(1)}

    def test_f3_two_primes(self):
        inst = sharp_instance(PrimeSet.of(2, 3))
        assert inst.label == "F3[2,3]"
        assert inst.N == 7
        assert dict(inst.expected) == {
            1: Fraction(1, 2),
            2: Fraction(3, 4) + Fraction(1, 24),
            3: Fraction(1),
        }

    def test_i1_variants(self):
        # delta_1 = max(1/9, 1/r), r the smallest prime of P other than 3
        for excluded, label, delta1 in (
            ((2,), "I1[5 in P]", Fraction(1, 5)),
            ((2, 5, 7), "I1[5 not in P]", Fraction(1, 9)),
            ((2, 5), "I1[5 not in P]", Fraction(1, 7)),
        ):
            inst = sharp_instance(PrimeSet.all_except(*excluded))
            assert inst.label == label
            assert dict(inst.expected)[1] == delta1, label

    def test_i3_hypotheses(self):
        with_five = sharp_instance(PrimeSet.all_except(3))
        without_five = sharp_instance(PrimeSet.all_except(3, 5))
        assert (with_five.label, without_five.label) == ("I3[5 in P]", "I3[5 not in P]")
        assert with_five.alpha.coordinate(5) == 3
        assert 5 not in without_five.alpha.overrides
        deltas = ((1, Fraction(1, 7)), (2, Fraction(1, 4)), (4, Fraction(16, 49)))
        assert with_five.expected == without_five.expected == deltas

    def test_i4_q5(self):
        inst = sharp_instance(PrimeSet.all_except(2, 3))
        assert inst.label == "I4[q=5]"
        assert inst.N == 5
        assert dict(inst.expected) == {
            1: Fraction(1, 7),
            2: Fraction(1, 5),
            3: Fraction(4, 15),
        }

    def test_all_instances_achieve_three_gaps(self):
        for inst in default_instances():
            assert gap_report(inst.alpha, inst.N).gap_count == 3, inst.label


class TestReproduction:
    def test_full_table_passes(self):
        table = reproduce_all()
        assert table.all_pass

    def test_includes_both_variants(self):
        labels = {row.label for row in reproduce_all().rows}
        assert {"I1[5 in P]", "I1[5 not in P]", "I3[5 in P]", "I3[5 not in P]"} <= labels

    def test_perturbed_alpha_fails_loudly(self):
        inst = sharp_instance(PrimeSet.of(3))
        perturbed = dataclasses.replace(
            inst, alpha=AdelePoint(Fraction(17, 5), 0, {3: 1}, inst.alpha.primes)
        )
        rows = reproduce_instance(perturbed)
        assert any(not r.ok for r in rows)

    def test_pinned_deltas_are_read_off_the_runs(self):
        """F3 on the first 15 primes has N = 2*3*...*47 + 1, about 6.1 * 10**17:
        each pinned delta_n is read off the report's runs."""
        inst = sharp_instance(PrimeSet.of(*PrimeSet.all_primes().first_members(15)))
        assert inst.N > 6 * 10**17
        with within_seconds(1):
            rows = reproduce_instance(inst)
        assert all(r.ok for r in rows), [r for r in rows if not r.ok]
        assert [r.computed for r in rows if r.quantity == "g_N"] == ["3"]

    def test_closed_form_families_across_prime_sets(self):
        # F3 and I4 expected values are generated from formulas; confirm the
        # engine agrees on several instantiations of each
        for primes in (
            *(PrimeSet.of(*listed) for listed in ((5,), (7,), (2, 3), (2, 5), (3, 5))),
            PrimeSet.all_except(2, 3),
            PrimeSet.all_except(2, 3, 5),
            PrimeSet.all_except(2, 3, 5, 7),
            PrimeSet.all_except(2, 3, 7),
            PrimeSet.all_except(2, 3, 5, 13),
        ):
            inst = sharp_instance(primes)
            deltas = expanded(gap_report(inst.alpha, inst.N).runs)
            for n, expected in inst.expected:
                assert deltas[n - 1] == expected, inst.label


SMALL_SETS = [
    *(PrimeSet.of(*listed) for k in range(1, 6) for listed in combinations((2, 3, 5, 7, 11), k)),
    *(PrimeSet.all_except(*excluded)
      for k in range(7) for excluded in combinations((2, 3, 5, 7, 11, 13), k)),
]


@pytest.mark.parametrize("primes", SMALL_SETS, ids=str)
def test_sharp_instance_on_small_prime_sets(primes):
    """Every finite P within {2, 3, 5, 7, 11} and every cofinite P whose
    exclusions lie within {2, 3, 5, 7, 11, 13} has a sharp instance: every
    pinned delta_n reproduces, g_N = 3, and where N <= 60 every delta_n
    matches the pairwise distance matrix."""
    inst = sharp_instance(primes)
    rows = reproduce_instance(inst)
    assert all(r.ok for r in rows), [r for r in rows if not r.ok]
    assert [r.computed for r in rows if r.quantity == "g_N"] == ["3"]
    if inst.N <= 60:
        assert expanded(gap_report(inst.alpha, inst.N).runs) == pairwise_deltas(inst.alpha, inst.N)
