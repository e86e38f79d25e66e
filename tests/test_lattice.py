import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import floor

import pytest

from adelic_gaps import (
    AdelePoint,
    DegenerateOrbitError,
    F_value,
    G_N_value,
    PrimeSet,
    RotationMatrixSpec,
    TorusPoint,
    add_diagonal,
    delta_via_lattice,
    gap_report,
    min_positive_diagonal_distance,
    reduce,
    scan_G,
    zero_point,
)
from adelic_gaps import adele, lattice
from adelic_gaps.cli import main, parse_alpha, parse_primes

from conftest import (
    ORACLE_PRIMESETS,
    counting,
    random_point,
    random_primeset,
    real_bound_draws,
    unreduced_point,
)
from oracles import (
    expanded,
    gamma_elements,
    multiple,
    prefix_minima_and_drops,
    real_bound,
    reference_ambient_abs,
    reference_shifted_norm,
    reference_torus_distance,
    windowed_F,
)

P2 = PrimeSet.of(2)
P3 = PrimeSet.of(3)


def f1_alpha() -> AdelePoint:
    """A new F1 alpha object: its lattice table starts cold, whatever earlier
    tests computed on `F1_ALPHA`."""
    return AdelePoint(Fraction(351, 100), 0, {2: 1}, P2)


F1_ALPHA = f1_alpha()
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
                norms = (reference_ambient_abs(add_diagonal(x, -g)) for g in gamma_elements(primes, 16))
                searched = min(d for d in norms if d > 0)
                assert min_positive_diagonal_distance(x) == searched


def v_min_draws():
    """The seeded draws of the v_min and D[k] kernel model tests: 35
    `unreduced_point`s over `ORACLE_PRIMESETS`, one per set moved to its prime
    coordinates with reduced real coordinate 0."""
    rng = random.Random(20261103)
    for i in range(35):
        primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
        alpha = unreduced_point(rng, primes, 30)
        if i % 5 == 4:
            xbar = reduce(alpha)[0]
            alpha = add_diagonal(AdelePoint(0, xbar.default_value, xbar.overrides, primes),
                                 rng.randint(-30, 30))
        yield alpha


def count_draw(seen: Counter, alpha: AdelePoint) -> None:
    seen["reduced alpha_inf = 0"] += reduce(alpha)[0].at_infinity == 0
    seen["cofinite, nonzero default"] += not alpha.primes.finite and alpha.default_value != 0


class TestVMin:
    def test_matches_reference_distance_of_each_multiple(self):
        """v_min(k), built in closed form from the reduced alpha, against the
        reduced k*alpha's distance to zero by the reference norm (1 on the lattice)."""
        seen = Counter()
        for alpha in v_min_draws():
            count_draw(seen, alpha)
            spec = RotationMatrixSpec(alpha, 1)
            zero = zero_point(alpha.primes)
            for k in range(-60, 61):
                expected = reference_torus_distance(multiple(alpha, k), zero)
                seen["k*alpha in Gamma_P, k != 0"] += k != 0 and expected == 0
                assert spec.v_min(k) == (expected or 1), (str(alpha), k)
        assert min(seen.values()) >= 7, seen

    def test_pair_kernel_matches_reference_distance_of_each_multiple(self):
        """D[k] as the pair `_multiple_distance` builds from the reduced alpha's
        integers, against the reduced k*alpha's distance to zero by the
        reference norm, and at k = 1 against `_reduced_distance`."""
        seen = Counter()
        for alpha in v_min_draws():
            count_draw(seen, alpha)
            xbar, zero = reduce(alpha)[0], zero_point(alpha.primes)
            assert Fraction(*adele._multiple_distance(xbar, 1)) == adele._reduced_distance(xbar, zero)
            for k in range(61):
                num, den = adele._multiple_distance(xbar, k)
                expected = reference_torus_distance(multiple(alpha, k), zero)
                assert den > 0 and Fraction(num, den) == expected, (str(alpha), k)
                assert (num == 0) == (expected == 0), (str(alpha), k)
                seen["k*alpha in Gamma_P, k != 0"] += k != 0 and expected == 0
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
                v_min = [spec.v_min(k) for k in range(spec.N + 1)]
                m = 2 * spec.N + 1
                ts = [Fraction(j, 4 * m) for j in range(1, 4 * m)]
                for _ in range(40):
                    den = rng.randint(2, 10**6)
                    ts.append(Fraction(rng.randint(1, den - 1), den))
                for t in ts:
                    assert F_value(spec, t) == windowed_F(spec, t, v_min), (spec, t)
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
                deltas = expanded(gap_report(alpha, N).runs)
            except DegenerateOrbitError:
                continue
            for n, direct in enumerate(deltas, 1):
                assert delta_via_lattice(alpha, N, n) == direct

    def test_f2_full_dual_path(self):
        for n, direct in enumerate(expanded(gap_report(F2_ALPHA, 5).runs), 1):
            assert delta_via_lattice(F2_ALPHA, 5, n) == direct


class TestVMinTable:
    def test_lattice_check_computes_each_v_min_once(self, monkeypatch, capsys):
        calls = []

        def recording(x):
            calls.append(x)
            return min_positive_diagonal_distance(x)

        monkeypatch.setattr(lattice, "min_positive_diagonal_distance", recording)
        argv = ["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                "--N", "52"]
        assert main(argv) == 0
        first = len(calls)
        assert first <= 53  # one per |k| <= N
        # each call parses its own alpha, so a second call starts from a cold table
        assert main(argv) == 0
        assert len(calls) == 2 * first
        assert capsys.readouterr().out.count("52/52 match") == 2

    @pytest.mark.parametrize("instance", ["F1", "cofinite", "fixed-cofinite"])
    def test_lattice_check_v_min_calls_match_real_bound(self, instance, rng, monkeypatch, capsys):
        # every F_value reads the prefix minimum of the table, so each |k| <= N
        # is visited once, when the table first grows past it; the table
        # starts from M[0] = v_min(0) = 1, so k = 0 is never computed
        if instance == "F1":
            primes, alpha, N = P2, F1_ALPHA, 52
        elif instance == "fixed-cofinite":
            # reduced alpha_inf = 5/12: at k = 4, 8, 15, 21 and 27 the real bound
            # equals the prefix minimum, so a k is skipped when its bound reaches it
            primes, alpha, N = PrimeSet.all_primes(), TestDropCounts.COFINITE, 60
        else:
            primes = PrimeSet.all_except(2, 3, 5, 7)
            alpha, N = unreduced_point(rng, primes, 30), 200
        calls, norms = [], []
        v_min, raw_abs = RotationMatrixSpec.v_min, lattice._raw_abs

        def recording(spec, k):
            calls.append(k)
            return v_min(spec, k)

        def norm(x, primes, k, j, bound):
            norms.append((k, j))
            return raw_abs(x, primes, k, j, bound)

        monkeypatch.setattr(RotationMatrixSpec, "v_min", recording)
        monkeypatch.setattr(lattice, "_raw_abs", norm)
        argv = ["lattice-check", "--primes", str(primes), "--alpha", str(alpha), "--N", str(N)]
        assert main(argv) == 0
        assert f"{N}/{N} match" in capsys.readouterr().out
        # the table is filled through radius N: the walk asks the norm of
        # k*alpha - j at j = m, then m + 1 (m = floor(k * abar_inf)), whenever its
        # real term is below the prefix minimum M[k - 1], and stops at the j
        # whose norm is positive and below M[k - 1]; v_min runs only at each k
        # where M drops
        zero = zero_point(primes)
        minima, drops = prefix_minima_and_drops(
            reference_torus_distance(multiple(alpha, k), zero) or Fraction(1) for k in range(N + 1)
        )
        abar = reduce(alpha)[0]
        expected = []
        for k in range(1, N + 1):
            m = floor(k * abar.at_infinity)
            for j in (m, m + 1):
                if abs(k * abar.at_infinity - j) < minima[k - 1]:
                    expected.append((k, j))
                    if 0 < reference_shifted_norm(abar, k, j) < minima[k - 1]:
                        break
        assert norms == expected
        assert {k for k, _ in norms} == {k for k in range(1, N + 1) if real_bound(alpha, k) < minima[k - 1]}
        assert calls == [k for k in range(1, N + 1) if drops[k] > drops[k - 1]]
        if instance == "F1":
            # after k = 1 the minimum is at most 51/100, so at most one j per k has
            # a real term below it: one norm at each of the 21 k with a real bound below M
            assert calls == [1, 3, 8, 16, 35, 51] and len(norms) == 21

    def test_kernel_overstating_a_drop_is_a_mismatch(self, monkeypatch, capsys):
        """The lattice side finds its drops with the walk's norm: a norm that misses
        F1's drop at k = 35 (D = 3/20) leaves the prefix minimum at 4/25 on the
        radii 35..50, and lattice-check reports each delta read there."""
        raw_abs = lattice._raw_abs
        monkeypatch.setattr(lattice, "_raw_abs", lambda x, primes, k, j, bound:
                            (1, 1) if k == 35 else raw_abs(x, primes, k, j, bound))
        argv = ["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                "--N", "52"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        # the radius of n is max(n - 1, 52 - n), in 35..50 for n in 2..17 and 36..51
        mismatched = [*range(2, 18), *range(36, 52)]
        assert f"{52 - len(mismatched)}/52 match" in out
        for n in mismatched:
            assert f"  MISMATCH n={n}: direct 3/20 != lattice 4/25" in out

    def test_fault_inside_a_run_is_a_mismatch_at_each_n(self, monkeypatch, capsys):
        """A fault that leaves a run's two ends right: the walk's norm reports
        drops at k = 39 and k = 45, where v_min gives 1/5 and then F1's 3/20 again,
        so the lattice delta is 3/20 at both ends of the radii 35..50, one run
        of the report, and 1/5 on 39..44.  Each n read there is a mismatch, as
        a per-n comparison through delta_via_lattice finds."""
        faults = {39: Fraction(1, 5), 45: Fraction(3, 20)}
        raw_abs, v_min = lattice._raw_abs, RotationMatrixSpec.v_min
        monkeypatch.setattr(lattice, "_raw_abs", lambda x, primes, k, j, bound:
                            (1, 7) if k in faults else raw_abs(x, primes, k, j, bound))
        monkeypatch.setattr(RotationMatrixSpec, "v_min", lambda spec, k: faults.get(k) or v_min(spec, k))
        argv = ["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                "--N", "52"]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "direct vs lattice deltas: 40/52 match"
        # the radius of n is max(n - 1, 52 - n), in 39..44 for n in 8..13 and 40..45
        mismatches = [line for line in lines if "MISMATCH" in line]
        assert mismatches == [f"  MISMATCH n={n}: direct 3/20 != lattice 1/5"
                              for n in [*range(8, 14), *range(40, 46)]]
        alpha = f1_alpha()  # the oracle fills its own table under the same faults
        oracle = [(n, direct, delta_via_lattice(alpha, 52, n))
                  for n, direct in enumerate(expanded(gap_report(F1_ALPHA, 52).runs), 1)]
        assert mismatches == [f"  MISMATCH n={n}: direct {direct} != lattice {via_lattice}"
                              for n, direct, via_lattice in oracle if direct != via_lattice]

    @pytest.mark.parametrize("primes, alpha, N", [
        ("2", "inf=351/100;default=0;2=1", 100000),
        ("all-except:2,3,5,7", "inf=-7/3;default=10;11=1/4;13=5", 2000),
    ], ids=["F1", "cofinite"])
    def test_lattice_check_compares_run_by_run(self, primes, alpha, N, monkeypatch, capsys):
        """lattice-check asks the lattice side at most twice per run of the
        report, not once per radius."""
        runs = len(gap_report(parse_alpha(alpha, parse_primes(primes)), N).runs)
        counts = Counter()
        monkeypatch.setattr(lattice, "delta_via_lattice",
                            counting(counts, "delta_via_lattice", delta_via_lattice))
        argv = ["lattice-check", "--primes", primes, "--alpha", alpha, "--N", str(N)]
        assert main(argv) == 0
        assert f"{N}/{N} match" in capsys.readouterr().out
        assert 1 <= counts["delta_via_lattice"] <= 2 * runs, (counts, runs)

    def test_lattice_check_memory_does_not_grow_with_N(self, monkeypatch, capsys):
        """The table keeps only its drops and the scan only its runs, so F1's
        lattice-check at N = 200000 (10 drops) stays within 1 MB of traced
        allocations, where one item per radius or per midpoint takes over 13 MB."""
        argv = ["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                "--N", "200000"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "200000/200000 match" in capsys.readouterr().out
        assert peak < 10**6, peak

    def test_lattice_check_validates_one_reduction(self, monkeypatch, capsys):
        """One lattice-check reduces alpha once, and both sides start from that
        reduced alpha: `reduce` passes a TorusPoint through, so one TorusPoint
        is validated per call, and no validated point is built per v_min(k)."""
        counts = Counter()
        monkeypatch.setattr(TorusPoint, "__post_init__",
                            counting(counts, "TorusPoint", TorusPoint.__post_init__))
        monkeypatch.setattr(AdelePoint, "__post_init__",
                            counting(counts, "__post_init__", AdelePoint.__post_init__))
        cofinite = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())
        for alpha in (F1_ALPHA, F2_ALPHA, cofinite):
            constructions = set()
            for N in (2, 9, 60):
                counts.clear()
                argv = ["lattice-check", "--primes", str(alpha.primes), "--alpha", str(alpha),
                        "--N", str(N)]
                assert main(argv) == 0
                assert f"{N}/{N} match" in capsys.readouterr().out
                assert counts["TorusPoint"] == 1
                constructions.add(counts["__post_init__"])
            assert len(constructions) == 1, (str(alpha), constructions)

    def test_table_lives_on_the_alpha_object(self, monkeypatch):
        """Every spec on one alpha object shares its table, so a later spec on it
        computes v_min only past the radii already filled; an equal alpha that
        is another object starts cold and computes v_min again at each drop."""
        calls = []
        v_min = RotationMatrixSpec.v_min
        monkeypatch.setattr(RotationMatrixSpec, "v_min",
                            lambda spec, k: calls.append(k) or v_min(spec, k))
        for alpha in (f1_alpha(), reduce(F1_ALPHA)[0]):
            assert scan_G(RotationMatrixSpec(alpha, 52)).distinct_count == 3
            assert calls == [1, 3, 8, 16, 35, 51]
            assert delta_via_lattice(alpha, 52, 18) == Fraction(4, 25)
            assert G_N_value(RotationMatrixSpec(alpha, 13000)) == gap_report(alpha, 13000).gap_count == 2
            assert calls == [1, 3, 8, 16, 35, 51, 12800]  # D[12800] = 1/128
            twin = AdelePoint(alpha.at_infinity, alpha.default_value, alpha.overrides, P2)
            assert twin == alpha and twin is not alpha
            calls.clear()
            assert scan_G(RotationMatrixSpec(twin, 52)).distinct_count == 3
            assert calls == [1, 3, 8, 16, 35, 51]
            calls.clear()

    def test_reading_the_table_reduces_nothing(self, monkeypatch):
        """A spec reduces its alpha only when it grows the table."""
        counts = Counter()
        monkeypatch.setattr(lattice, "reduce", counting(counts, "reduce", reduce))
        alpha = f1_alpha()
        assert delta_via_lattice(alpha, 52, 1) == Fraction(1, 100)
        assert counts["reduce"] == 1
        for n in range(1, 53):
            delta_via_lattice(alpha, 52, n)
        assert counts["reduce"] == 1

    def test_a_warm_alpha_builds_no_table(self, monkeypatch):
        """A spec builds a table only when its alpha has none: the first spec on
        an alpha builds one, and a second spec or a `delta_via_lattice` call on
        it builds none."""
        built = []
        namespace = lattice.SimpleNamespace

        def counted(**fields):
            built.append(fields)
            return namespace(**fields)

        monkeypatch.setattr(lattice, "SimpleNamespace", counted)
        alpha = f1_alpha()
        first = RotationMatrixSpec(alpha, 52)
        assert len(built) == 1
        assert delta_via_lattice(alpha, 52, 18) == Fraction(4, 25)
        second = RotationMatrixSpec(alpha, 200)
        assert delta_via_lattice(alpha, 200, 1) == Fraction(1, 100)
        assert len(built) == 1
        assert second._table is first._table is vars(alpha)["_v_min_table"]


class TestRealBoundSkip:
    def test_table_matches_prefix_minima_of_every_v_min(self):
        """The table's prefix minima and drop counts, filled with the real-bound
        skip, against those of v_min at every k; the values hold each minimum once.
        The table is first filled through K // 2, so the reads below it bisect
        a table filled past them and the reads above it grow the table."""
        for alpha, K in real_bound_draws(20261019, 28, 400):
            spec = RotationMatrixSpec(alpha, K)
            spec.drop_count(K // 2)
            counts = [spec.drop_count(k) for k in range(K + 1)]
            values = spec._table.values
            minima, drops = prefix_minima_and_drops(spec.v_min(k) for k in range(K + 1))
            assert [values[c] for c in counts] == minima, (str(alpha), K)
            assert counts == drops, (str(alpha), K)
            assert values == sorted(set(minima), reverse=True), (str(alpha), K)


class TestClosedFormRadii:
    def test_match_the_window_radius_at_every_N(self):
        """The radii that delta_via_lattice, G_N_value and scan_G take in closed
        form against `_radius` at t = n / (N + 1/2) and at the midpoints
        t = (2j + 1)/(2m), m = 2N + 1, for every n, j and N <= 400."""
        for N in range(1, 401):
            m = 2 * N + 1
            for n in range(1, N + 1):
                assert max(n - 1, N - n) == lattice._radius(m, 2 * n, m), (N, n)
            for j in range(m):
                K = lattice._radius(m, 2 * j + 1, 2 * m)
                assert max(j // 2, N - (j + 1) // 2) == K, (N, j)
                assert ((2 * N - j) // 2 if j <= N else j // 2) == K, (N, j)


class TestDropCounts:
    """G_N_value, scan_G and delta_via_lattice read the table's drop counts and
    prefix minima; each must agree with its definition through F_value."""

    COFINITE = AdelePoint(Fraction(-7, 3), 10, {2: Fraction(1, 4), 3: 5}, PrimeSet.all_primes())

    @pytest.mark.parametrize("alpha", [F1_ALPHA, F2_ALPHA, COFINITE], ids=["F1", "F2", "cofinite"])
    def test_lattice_check_makes_one_F_value_per_distinct_value(self, alpha, monkeypatch, capsys):
        calls = []
        F = lattice.F_value

        def recording(spec, t):
            calls.append(t)
            return F(spec, t)

        monkeypatch.setattr(lattice, "F_value", recording)
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
            assert expanded(scan.runs) == midpoints
            for n in range(1, N + 1):
                assert delta_via_lattice(spec.alpha, N, n) == samples[n - 1] / spec.t
            sizes[N == 1, len(set(midpoints))] += 1
        assert {g for _, g in sizes} == {1, 2, 3} and any(n1 for n1, _ in sizes), sizes


class TestScanG:
    def test_f2_scan(self):
        result = scan_G(RotationMatrixSpec(F2_ALPHA, 5))
        low, mid, high = Fraction(11, 10), Fraction(33, 10), Fraction(22, 5)
        assert expanded(result.runs) == [low] * 3 + [mid] * 2 + [high] + [mid] * 2 + [low] * 3
        assert result.distinct_count == 3

    def test_f1_scan(self):
        result = scan_G(RotationMatrixSpec(F1_ALPHA, 52))
        values = expanded(result.runs)
        assert len(values) == 105
        assert set(values) == {Fraction(21, 40), Fraction(42, 5), Fraction(63, 8)}
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
        # the cuts k/t and 1 - k/t (t = 11/2, 1 <= k <= 5) are the ten j/11
        edges = [Fraction(j, 11) for j in range(12)]
        for (lo, hi), value in zip(zip(edges[:-1], edges[1:]), expanded(result.runs)):
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
