import weakref
from fractions import Fraction

import pytest

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    F_value,
    G_N_value,
    PrimeSet,
    RotationMatrixSpec,
    add_diagonal,
    delta_via_lattice,
    gap_report,
    min_positive_diagonal_distance,
    scale_by_integer,
    scan_G,
    zero_point,
)
from adelic_gaps import lattice
from adelic_gaps.adele import ambient_abs
from adelic_gaps.cli import main

from conftest import random_point, random_primeset
from oracles import gamma_elements

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)

F1_ALPHA = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
F2_ALPHA = AdelePoint(Fraction(16, 5), 0, {3: 1}, P3)


class TestMinPositiveDiagonalDistance:
    def test_off_lattice_equals_torus_distance(self):
        x = scale_by_integer(F1_ALPHA, 51)
        assert min_positive_diagonal_distance(x) == Fraction(1, 100)

    def test_zero_point_finite_sets(self):
        assert min_positive_diagonal_distance(zero_point(P2)) == 1
        assert min_positive_diagonal_distance(zero_point(P3)) == 1

    def test_zero_point_cofinite(self):
        assert min_positive_diagonal_distance(zero_point(PrimeSet.all_primes())) == 1

    def test_lattice_points_match_gamma_search(self):
        # on the lattice the answer is the shortest nonzero element of Gamma_P;
        # an independent search over gamma of height <= 16 must find the same
        sets = (P2, PrimeSet.of(3, 5), PrimeSet.all_primes(), PrimeSet.all_except(2),
                PrimeSet.all_except(2, 3, 5, 7))
        for primes in sets:
            for gamma in (0, 3, Fraction(1, 2)):
                if gamma == Fraction(1, 2) and 2 not in primes:
                    continue
                x = add_diagonal(zero_point(primes), gamma)
                searched = min(
                    d for d in (ambient_abs(add_diagonal(x, -g)) for g in gamma_elements(primes, 16))
                    if d > 0
                )
                assert min_positive_diagonal_distance(x) == searched


class TestFValue:
    def test_f2_at_first_sample(self):
        spec = RotationMatrixSpec(F2_ALPHA, 5)
        n_plus = Fraction(11, 2)
        assert spec.t == n_plus
        assert F_value(spec, Fraction(1, 1) / n_plus) == n_plus * Fraction(1, 5)

    def test_f1_second_sample(self):
        spec = RotationMatrixSpec(F1_ALPHA, 52)
        n_plus = Fraction(105, 2)
        assert F_value(spec, 2 / n_plus) / n_plus == Fraction(3, 20)

    def test_definitional_recomputation_at_half(self):
        spec = RotationMatrixSpec(F2_ALPHA, 5)
        n_plus = spec.t
        # direct recomputation of the windowed minimum at t = 1/2
        ks = [k for k in range(-5, 6) if -Fraction(1, 2) < Fraction(k) / n_plus < Fraction(1, 2)]
        expected = n_plus * min(spec.v_min(k) for k in ks)
        assert F_value(spec, Fraction(1, 2)) == expected

    def test_rejects_bad_arguments(self):
        spec = RotationMatrixSpec(F2_ALPHA, 5)
        with pytest.raises(ValueError, match=r"t must lie in \(0,1\)"):
            F_value(spec, Fraction(0))
        with pytest.raises(ValueError, match="N must be >= 1"):
            RotationMatrixSpec(F2_ALPHA, 0)


class TestDeltaViaLattice:
    def test_f1_third_gap(self):
        assert delta_via_lattice(F1_ALPHA, 52, 18) == Fraction(4, 25)

    def test_f2_second_gap(self):
        assert delta_via_lattice(F2_ALPHA, 5, 2) == Fraction(3, 5)

    def test_agrees_with_direct_path(self, rng):
        for _ in range(20):
            primes = random_primeset(rng)
            alpha = random_point(rng, primes, 30)
            N = rng.randint(2, 12)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            for n in range(1, N + 1):
                assert delta_via_lattice(alpha, N, n) == report.deltas[n - 1]

    def test_f2_full_dual_path(self):
        report = gap_report(F2_ALPHA, 5)
        for n in range(1, 6):
            assert delta_via_lattice(F2_ALPHA, 5, n) == report.deltas[n - 1]


class TestVMinTable:
    def test_lattice_check_computes_each_v_min_once(self, monkeypatch, capsys):
        calls = []

        def counting(x):
            calls.append(x)
            return min_positive_diagonal_distance(x)

        monkeypatch.setattr(lattice, "min_positive_diagonal_distance", counting)
        # start empty: this module's F1_ALPHA is alive and its table is warm
        tables = weakref.WeakKeyDictionary()
        monkeypatch.setattr(lattice, "_V_MIN_TABLES", tables)
        argv = ["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                "--N", "52"]
        assert main(argv) == 0
        first = len(calls)
        assert first <= 53  # one per |k| <= N
        # the table dies with alpha: a second call starts from an empty table
        assert len(tables) == 0
        assert main(argv) == 0
        assert len(calls) == 2 * first
        assert capsys.readouterr().out.count("52/52 match") == 2


class TestScanG:
    def test_f2_scan(self):
        result = scan_G(RotationMatrixSpec(F2_ALPHA, 5))
        # the cuts k/t and 1 - k/t (t = 11/2, 1 <= k <= 5) are the ten j/11
        assert result.breakpoints == [Fraction(j, 11) for j in range(1, 11)]
        low, mid, high = Fraction(11, 10), Fraction(33, 10), Fraction(22, 5)
        assert result.interval_values == [low] * 3 + [mid] * 2 + [high] + [mid] * 2 + [low] * 3
        assert result.distinct_count == 3

    def test_f1_scan(self):
        result = scan_G(RotationMatrixSpec(F1_ALPHA, 52))
        # t = 105/2, so the cuts are the 104 fractions j/105
        assert result.breakpoints == [Fraction(j, 105) for j in range(1, 105)]
        assert len(result.interval_values) == 105
        assert set(result.interval_values) == {Fraction(21, 40), Fraction(42, 5), Fraction(63, 8)}
        assert result.distinct_count == 3

    def test_chain_on_paper_instances(self):
        for alpha, N in ((F1_ALPHA, 52), (F2_ALPHA, 5)):
            spec = RotationMatrixSpec(alpha, N)
            g = gap_report(alpha, N).gap_count
            g_n = G_N_value(spec)
            g_scan = scan_G(spec).distinct_count
            assert g == g_n <= g_scan <= 3

    def test_piecewise_constancy(self):
        spec = RotationMatrixSpec(F2_ALPHA, 5)
        result = scan_G(spec)
        edges = [Fraction(0)] + result.breakpoints + [Fraction(1)]
        for (lo, hi), value in zip(zip(edges[:-1], edges[1:]), result.interval_values):
            for frac in (Fraction(1, 3), Fraction(3, 4)):
                t = lo + (hi - lo) * frac
                assert F_value(spec, t) == value

    def test_candidate_set_negation_symmetry(self):
        spec = RotationMatrixSpec(F1_ALPHA, 52)
        for k in range(0, 53):
            assert spec.v_min(k) == spec.v_min(-k)

    def test_degenerate_spec_scan_completes(self):
        diagonal = AdelePoint(Fraction(2), 2, {}, P2)
        result = scan_G(RotationMatrixSpec(diagonal, 3))
        assert result.distinct_count >= 1

    def test_random_specs_bounded_by_three(self, rng):
        for _ in range(15):
            primes = random_primeset(rng)
            alpha = random_point(rng, primes, 30)
            N = rng.randint(1, 10)
            assert scan_G(RotationMatrixSpec(alpha, N)).distinct_count <= 3


class TestGNValue:
    def test_f1(self):
        assert G_N_value(RotationMatrixSpec(F1_ALPHA, 52)) == 3

    def test_i4(self):
        primes = PrimeSet.all_except(2, 3)
        alpha = AdelePoint(Fraction(4, 15), 0, {5: -1}, primes)
        assert G_N_value(RotationMatrixSpec(alpha, 5)) == 3

    def test_matches_gap_count(self, rng):
        for _ in range(15):
            primes = random_primeset(rng)
            alpha = random_point(rng, primes, 30)
            N = rng.randint(2, 10)
            try:
                g = gap_report(alpha, N).gap_count
            except DegenerateOrbitError:
                continue
            assert G_N_value(RotationMatrixSpec(alpha, N)) == g
