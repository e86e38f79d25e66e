import json
import random
import weakref
from collections import Counter
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
    reduce,
    scan_G,
    zero_point,
)
from adelic_gaps import adele, lattice, torus_gaps
from adelic_gaps.adele import ambient_abs
from adelic_gaps.cli import main

from conftest import ORACLE_PRIMESETS, random_point, random_primeset, real_bound_draws, unreduced_point
from oracles import (
    gamma_elements,
    multiple,
    prefix_minima_and_drops,
    real_bound,
    reference_torus_distance,
    windowed_F,
)

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)

F1_ALPHA = AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)
F2_ALPHA = AdelePoint(Fraction(16, 5), 0, {3: 1}, P3)


class TestMinPositiveDiagonalDistance:
    def test_off_lattice_equals_torus_distance(self):
        x = multiple(F1_ALPHA, 51)
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


class TestVMin:
    def test_matches_reference_distance_of_each_multiple(self):
        """v_min(k), built in closed form from the reduced alpha, against the
        reduced k*alpha's distance to zero by the reference norm (1 on the lattice)."""
        rng = random.Random(20261103)
        seen = Counter()
        for i in range(35):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha = unreduced_point(rng, primes, 30)
            if i % 5 == 4:
                # one per prime set: its prime coordinates with reduced real coordinate 0
                xbar = reduce(alpha)[0]
                alpha = add_diagonal(AdelePoint(0, xbar.default_value, xbar.overrides, primes),
                                     rng.randint(-30, 30))
                seen["reduced alpha_inf = 0"] += 1
            spec = RotationMatrixSpec(alpha, 1)
            zero = zero_point(primes)
            seen["cofinite, nonzero default"] += not primes.finite and alpha.default_value != 0
            for k in range(-60, 61):
                expected = reference_torus_distance(multiple(alpha, k), zero)
                seen["k*alpha in Gamma_P, k != 0"] += k != 0 and expected == 0
                assert spec.v_min(k) == (expected or 1), (str(alpha), k)
        assert min(seen.values()) >= 7, seen


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

    def test_matches_windowed_oracle(self, rng):
        # every t = j/(4m) (m = 2N + 1) hits each breakpoint j'/m exactly, where
        # the strict window inequalities decide, and each midpoint between them
        compared = 0
        for primes in ORACLE_PRIMESETS:
            for draw in range(12):
                make = random_point if draw % 2 else unreduced_point
                spec = RotationMatrixSpec(make(rng, primes, 30), rng.randint(1, 25))
                m = 2 * spec.N + 1
                ts = [Fraction(j, 4 * m) for j in range(1, 4 * m)]
                for _ in range(40):
                    den = rng.randint(2, 10**6)
                    ts.append(Fraction(rng.randint(1, den - 1), den))
                for t in ts:
                    assert F_value(spec, t) == windowed_F(spec, t), (spec, t)
                compared += len(ts)
        assert compared > 10_000

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

    @pytest.mark.parametrize("instance", ["F1", "cofinite", "fixed-cofinite"])
    def test_lattice_check_makes_at_most_n_plus_1_v_min_calls(self, instance, rng,
                                                              monkeypatch, capsys):
        # every F_value reads the prefix minimum of the table, so each |k| <= N
        # is looked up once, when the table first grows past it
        if instance == "F1":
            primes, alpha, N = P2, F1_ALPHA, 52
        elif instance == "fixed-cofinite":
            # reduced alpha_inf = 5/12: at k = 4, 8, 15, 21 and 27 the real bound
            # equals the prefix minimum, so a k is skipped when its bound reaches it
            primes, alpha, N = PrimeSet.all_primes(), TestDropCounts.COFINITE, 60
        else:
            primes = PrimeSet.all_except(2, 3, 5, 7)
            alpha, N = unreduced_point(rng, primes, 30), 200
        calls = []
        v_min = RotationMatrixSpec.v_min

        def counting(spec, k):
            calls.append(k)
            return v_min(spec, k)

        monkeypatch.setattr(RotationMatrixSpec, "v_min", counting)
        monkeypatch.setattr(lattice, "_V_MIN_TABLES", weakref.WeakKeyDictionary())
        argv = ["lattice-check", "--primes", str(primes), "--alpha", str(alpha), "--N", str(N)]
        assert main(argv) == 0
        assert f"{N}/{N} match" in capsys.readouterr().out
        assert 0 < len(calls) <= N + 1
        # the table is filled through radius N, and v_min(k) is computed at k = 0
        # and at each k whose real bound is below the prefix minimum M[k - 1]
        zero = zero_point(primes)
        minima, _ = prefix_minima_and_drops(
            reference_torus_distance(multiple(alpha, k), zero) or Fraction(1) for k in range(N + 1)
        )
        assert len(calls) == 1 + sum(real_bound(alpha, k) < minima[k - 1] for k in range(1, N + 1))

    def test_lattice_check_reduces_alpha_twice(self, monkeypatch, capsys):
        """One lattice-check reduces alpha in `orbit` and once for its v_min table,
        and builds no validated point per v_min(k)."""
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        counted_reduce = counting("reduce", adele.reduce)
        for module in (adele, torus_gaps, lattice):
            monkeypatch.setattr(module, "reduce", counted_reduce)
        monkeypatch.setattr(AdelePoint, "__post_init__",
                            counting("__post_init__", AdelePoint.__post_init__))
        monkeypatch.setattr(lattice, "_V_MIN_TABLES", weakref.WeakKeyDictionary())
        cofinite = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            constructions = set()
            for N in (2, 9, 60):
                counts.clear()
                argv = ["lattice-check", "--primes", str(alpha.primes), "--alpha", str(alpha),
                        "--N", str(N)]
                assert main(argv) == 0
                assert f"{N}/{N} match" in capsys.readouterr().out
                assert counts["reduce"] == 2
                constructions.add(counts["__post_init__"])
            assert len(constructions) == 1, (str(alpha), constructions)


class TestRealBoundSkip:
    def test_table_matches_prefix_minima_of_every_v_min(self, monkeypatch):
        """The table's prefix minima and drop counts, filled with the real-bound
        skip, against those of v_min at every k."""
        monkeypatch.setattr(lattice, "_V_MIN_TABLES", weakref.WeakKeyDictionary())
        for alpha, K in real_bound_draws(20261019, 28, 400):
            spec = RotationMatrixSpec(alpha, K)
            spec._fill(K)
            minima, drops = prefix_minima_and_drops(spec.v_min(k) for k in range(K + 1))
            assert spec._prefix_min == minima, (str(alpha), K)
            assert spec._drops == drops, (str(alpha), K)


class TestDropCounts:
    """G_N_value, scan_G and delta_via_lattice read the table's drop counts and
    prefix minima; each must agree with its definition through F_value."""

    COFINITE = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())

    @pytest.mark.parametrize("alpha", [F1_ALPHA, F2_ALPHA, COFINITE], ids=["F1", "F2", "cofinite"])
    def test_lattice_check_makes_one_F_value_per_distinct_value(self, alpha, monkeypatch, capsys):
        calls = []
        F = lattice.F_value

        def counting(spec, t):
            calls.append(t)
            return F(spec, t)

        monkeypatch.setattr(lattice, "F_value", counting)
        for N in (2, 9, 60, 2000):
            calls.clear()
            argv = ["lattice-check", "--primes", str(alpha.primes), "--alpha", str(alpha),
                    "--N", str(N), "--format", "json"]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["matches"] == N
            assert len(calls) <= payload["G_scan"] <= 3, (str(alpha), N, len(calls))

    def test_counts_match_distinct_F_values(self):
        rng = random.Random(20261118)
        sizes = Counter()
        for i in range(70):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            make = random_point if i % 2 else unreduced_point
            N = 1 if i % 10 == 0 else rng.randint(2, 40)
            spec = RotationMatrixSpec(make(rng, primes, 30), N)
            m = 2 * N + 1
            samples = [F_value(spec, Fraction(2 * n, m)) for n in range(1, N + 1)]
            midpoints = [F_value(spec, Fraction(2 * j + 1, 2 * m)) for j in range(m)]
            assert G_N_value(spec) == len(set(samples)), (str(spec.alpha), N)
            scan = scan_G(spec)
            assert scan.distinct_count == len(set(midpoints)), (str(spec.alpha), N)
            assert scan.interval_values == midpoints
            for n in range(1, N + 1):
                assert delta_via_lattice(spec.alpha, N, n) == samples[n - 1] / spec.t
            sizes[N == 1, len(set(midpoints))] += 1
        assert {g for _, g in sizes} == {1, 2, 3} and any(n1 for n1, _ in sizes), sizes


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
