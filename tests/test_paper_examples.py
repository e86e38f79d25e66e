from fractions import Fraction

import pytest

from adelic_gaps import (
    AdelePoint,
    PrimeSet,
    build_F1,
    build_F2,
    build_F3,
    build_I1,
    build_I2,
    build_I3,
    build_I4,
    default_instances,
    gap_report,
    reproduce_all,
)
from adelic_gaps.paper_examples import reproduce_instance


class TestBuilders:
    def test_f1_fields(self):
        inst = build_F1()
        assert inst.N == 52
        assert dict(inst.expected) == {
            1: Fraction(1, 100),
            2: Fraction(3, 20),
            18: Fraction(4, 25),
        }
        assert inst.expected_g == 3

    def test_f2_fields(self):
        inst = build_F2()
        assert dict(inst.expected) == {1: Fraction(1, 5), 2: Fraction(3, 5), 3: Fraction(4, 5)}

    def test_f3_single_prime(self):
        inst = build_F3(PrimeSet.of(5))
        assert inst.N == 6
        assert inst.alpha.at_infinity == Fraction(1, 20)
        assert dict(inst.expected) == {1: Fraction(1, 4), 2: Fraction(4, 5), 3: Fraction(1)}

    def test_f3_two_primes(self):
        inst = build_F3(PrimeSet.of(2, 3))
        assert inst.N == 7
        assert dict(inst.expected) == {
            1: Fraction(1, 2),
            2: Fraction(3, 4) + Fraction(1, 24),
            3: Fraction(1),
        }

    def test_f3_rejects_small_product(self):
        with pytest.raises(ValueError, match=">= 5"):
            build_F3(PrimeSet.of(2))
        with pytest.raises(ValueError, match=">= 5"):
            build_F3(PrimeSet.of(3))

    def test_f3_rejects_cofinite(self):
        with pytest.raises(ValueError, match="finite"):
            build_F3(PrimeSet.all_primes())

    def test_i1_variants(self):
        with_five = build_I1(five_in_set=True)
        without_five = build_I1(five_in_set=False)
        assert dict(with_five.expected)[1] == Fraction(1, 5)
        assert dict(without_five.expected)[1] == Fraction(1, 9)
        assert 7 not in without_five.primes

    def test_i1_rejects_wrong_smallest_prime(self):
        with pytest.raises(ValueError, match="smallest prime 3"):
            build_I1(primes=PrimeSet.all_primes())

    def test_i1_rejects_variant_mismatch(self):
        with pytest.raises(ValueError, match="5-membership"):
            build_I1(five_in_set=False, primes=PrimeSet.all_except(2))
        with pytest.raises(ValueError, match="7 outside"):
            build_I1(five_in_set=False, primes=PrimeSet.all_except(2, 5))

    def test_i2_requires_two_and_three(self):
        with pytest.raises(ValueError, match="2 and 3"):
            build_I2(primes=PrimeSet.all_except(2))

    def test_i3_hypotheses(self):
        with pytest.raises(ValueError, match="3 outside"):
            build_I3(primes=PrimeSet.all_primes())
        with pytest.raises(ValueError, match="2 in"):
            build_I3(primes=PrimeSet.all_except(2, 3))
        inst = build_I3(five_in_set=True)
        assert inst.alpha.coordinate(5) == 3
        inst = build_I3(five_in_set=False)
        assert 5 not in inst.alpha.overrides

    def test_i4_q5(self):
        inst = build_I4(5)
        assert inst.N == 5
        assert dict(inst.expected) == {
            1: Fraction(1, 7),
            2: Fraction(1, 5),
            3: Fraction(4, 15),
        }

    def test_i4_rejects_small_q(self):
        with pytest.raises(ValueError, match="q >= 5"):
            build_I4(3)
        with pytest.raises(ValueError, match="q >= 5"):
            build_I4(7, primes=PrimeSet.all_except(2, 3))  # smallest is 5, not 7

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
        inst = build_F2()
        perturbed = inst.__class__(
            inst.label,
            inst.primes,
            AdelePoint(Fraction(17, 5), 0, {3: 1}, inst.primes),
            inst.N,
            inst.expected,
        )
        rows = reproduce_instance(perturbed)
        assert any(not r.ok for r in rows)

    def test_closed_form_families_across_prime_sets(self):
        # F3 and I4 expected values are generated from formulas; confirm the
        # engine agrees on several instantiations of each
        f3_sets = [PrimeSet.of(*listed) for listed in ((5,), (7,), (2, 3), (2, 5), (3, 5))]
        for primes in f3_sets:
            inst = build_F3(primes)
            report = gap_report(inst.alpha, inst.N)
            for n, expected in inst.expected:
                assert report.deltas[n - 1] == expected, inst.label
        for q, primes in (
            (5, None),
            (7, None),
            (11, None),
            (5, PrimeSet.all_except(2, 3, 7)),
            (7, PrimeSet.all_except(2, 3, 5, 13)),
        ):
            inst = build_I4(q, primes=primes)
            report = gap_report(inst.alpha, inst.N)
            for n, expected in inst.expected:
                assert report.deltas[n - 1] == expected, inst.label
