import csv
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from adelic_gaps import DegenerateOrbitError, PrimeSet, gap_report, reduce, sharp_instance, zero_point
from adelic_gaps import cli, paper_examples
from adelic_gaps.cli import (
    CliError,
    build_parser,
    main,
    parse_alpha,
    parse_primes,
    parse_rational,
    random_instance,
)
from adelic_gaps.torus_gaps import GapReport

from conftest import ORACLE_PRIMESETS, unreduced_point, within_seconds
from oracles import multiple, prefix_min_deltas


class TestParsing:
    def test_rationals(self):
        assert parse_rational("351/100") == Fraction(351, 100)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(" 3 ") == Fraction(3)
        with pytest.raises(CliError):
            parse_rational("x/y")
        with pytest.raises(CliError):
            parse_rational("1/0")

    def test_prime_sets(self):
        assert parse_primes("2,3,5") == PrimeSet.of(2, 3, 5)
        assert parse_primes("all") == PrimeSet.all_primes()
        assert parse_primes("all-except:2,3") == PrimeSet.all_except(2, 3)
        with pytest.raises(CliError):
            parse_primes("2,4")
        with pytest.raises(CliError):
            parse_primes("two")

    def test_alpha(self):
        primes = PrimeSet.of(2)
        point = parse_alpha("inf=351/100;default=0;2=1", primes)
        assert point.at_infinity == Fraction(351, 100)
        assert point.coordinate(2) == 1
        with pytest.raises(CliError, match="key=value"):
            parse_alpha("inf", primes)
        with pytest.raises(CliError, match="unknown point key"):
            parse_alpha("foo=1", primes)
        with pytest.raises(CliError, match="invalid point"):
            parse_alpha("inf=0;3=1", primes)
        for repeated in ("inf=1/2;inf=1/3", "default=0;default=2", "2=1;2=1/2", "2=1;02=1"):
            with pytest.raises(CliError, match="repeated point key"):
                parse_alpha(repeated, primes)

    @pytest.mark.parametrize("text, prime", [("2,2", 2), ("all-except:3,3", 3), ("5,3,02,2", 2)])
    def test_repeated_prime_is_named(self, text, prime, capsys):
        """The list is sorted here, so only a repeat can be refused: the error
        names it, as a repeated point key is named."""
        assert main(["gaps", "--primes", text, "--alpha", "inf=1/3", "--N", "5"]) == 1
        assert capsys.readouterr() == ("", f"error: repeated prime {prime}\n")

    def test_a_built_unsorted_set_is_still_refused(self):
        with pytest.raises(ValueError, match="sorted"):
            PrimeSet(True, (3, 2))


class TestGapsCommand:
    def test_f1(self, capsys):
        code = main(
            ["gaps", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1", "--N", "52",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap_count"] == 3
        assert payload["distinct_gaps"] == ["1/100", "3/20", "4/25"]

    def test_i2(self, capsys):
        code = main(["gaps", "--primes", "all", "--alpha", "inf=27/50;default=0;2=-1", "--N", "6"])
        assert code == 0
        assert "distinct gaps (3)" in capsys.readouterr().out

    def test_json_round_trips_exact_rationals(self, capsys):
        main(["gaps", "--primes", "3", "--alpha", "inf=16/5;default=0;3=1", "--N", "5",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        deltas = [Fraction(d) for d in payload["deltas"]]
        assert deltas == [Fraction(1, 5), Fraction(3, 5), Fraction(4, 5), Fraction(3, 5), Fraction(1, 5)]

    def test_csv_output(self, capsys):
        main(["gaps", "--primes", "3", "--alpha", "inf=16/5;default=0;3=1", "--N", "5",
              "--format", "csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5 + 1  # the header and one row per n, no empty last row
        assert rows[0] == ["n", "delta"]
        assert rows[1] == ["1", "1/5"]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gaps", "--primes", "2", "--alpha", "inf=0", "--N", "notanint"])
        assert excinfo.value.code == 1

    def test_bad_n_is_usage_error(self, capsys):
        assert main(["gaps", "--primes", "2", "--alpha", "inf=1/3", "--N", "0"]) == 1

    def test_parse_error_exit_code(self):
        assert main(["gaps", "--primes", "2,4", "--alpha", "inf=0", "--N", "5"]) == 1
        assert main(["gaps", "--primes", "all-except:2", "--alpha",
                     "inf=1/2;inf=16/5;default=0;3=7;3=1", "--N", "5"]) == 1

    def test_degenerate_orbit_is_an_error(self, capsys):
        assert main(["gaps", "--primes", "2", "--alpha", "inf=3;default=3", "--N", "4"]) == 1
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gaps", "lattice-check"])
    def test_single_orbit_point_is_an_error(self, command, capsys):
        # F1's alpha is not a diagonal element: at N = 1 its one point has no neighbor
        argv = [command, "--primes", "2", "--alpha", "inf=351/100;default=0;2=1", "--N", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N = 1: a single orbit point has no nearest neighbor\n"


class TestGapsListing:
    """`gaps --format json|csv` lists every delta_n, written from the runs of
    the gap profile: its bytes must equal the full per-n list serialised item
    by item."""

    @staticmethod
    def expected_outputs(alpha, N) -> tuple[str, str]:
        """The JSON and CSV stdout that json.dumps(indent=2) and csv.writer
        write from the oracle's per-n deltas."""
        values = prefix_min_deltas(alpha, N)
        deltas = [str(d) for d in values]
        witnesses = {}
        for n, d in enumerate(values, start=1):
            witnesses.setdefault(d, n)
        gaps = sorted(witnesses)
        record = {
            "N": N,
            "deltas": deltas,
            "distinct_gaps": [str(g) for g in gaps],
            "gap_count": len(gaps),
            "witnesses": {str(g): witnesses[g] for g in gaps},
            "alpha": str(alpha),
            "primes": str(alpha.primes),
        }
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows([("n", "delta"), *enumerate(deltas, start=1)])
        return json.dumps(record, indent=2) + "\n", rows.getvalue()

    def test_listing_matches_the_oracle_item_by_item(self, capsys):
        """Seeded `unreduced_point` draws over `ORACLE_PRIMESETS`, N = 2 and 3
        on each set and N in [2, 300] otherwise, torsion draws included."""
        rng = random.Random(2022)
        torsion = 0
        for i in range(70):
            primes = ORACLE_PRIMESETS[i % len(ORACLE_PRIMESETS)]
            alpha = unreduced_point(rng, primes, 30)
            N = 2 + i % 2 if i < 2 * len(ORACLE_PRIMESETS) else rng.randint(2, 300)
            argv = ["gaps", "--primes", str(primes), "--alpha", str(alpha), "--N", str(N)]
            try:
                expected = self.expected_outputs(alpha, N)
            except DegenerateOrbitError:
                assert main(argv) == 1, (str(alpha), N)
                capsys.readouterr()
                continue
            for fmt, out in zip(("json", "csv"), expected):
                assert main([*argv, "--format", fmt]) == 0
                assert capsys.readouterr().out == out, (str(alpha), N, fmt)
            torsion += reduce(multiple(alpha, 11 * 7 * 5 * 3 * 2))[0] == zero_point(primes)
        assert torsion > 0


class TestStreamedListing:
    """`_emit` writes a listing at most LISTING_CHUNK items at a time.  With a
    chunk of 3, the lists hold runs shorter than a chunk, longer than one and
    ending on a chunk boundary, also when counted after the first item, which
    JSON writes on its own; the bytes must equal what json.dumps(indent=2)
    and csv.writer write item by item."""

    LISTINGS = [
        [("1/5", 2), ("1/7", 7), ("1/3", 3), ("2/11", 1), ("1/5", 6), ("1/7", 4)],
        [("1/2", 4), ("1/3", 3)],
        [("1/2", 3)],
        [("1/2", 1)],
    ]

    @pytest.mark.parametrize("runs", LISTINGS)
    def test_bytes_equal_item_by_item_serialisation(self, runs, capsys, monkeypatch):
        monkeypatch.setattr(cli, "LISTING_CHUNK", 3)
        deltas = [text for text, count in runs for _ in range(count)]
        record = {"N": len(deltas), "deltas": [], "gap_count": len(set(deltas)), "primes": "2"}
        cli._emit("json", record, [], deltas=runs)
        assert capsys.readouterr().out == json.dumps({**record, "deltas": deltas}, indent=2) + "\n"
        cli._emit("csv", record, [], [("n", "delta")], runs)
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows([("n", "delta"), *enumerate(deltas, start=1)])
        assert capsys.readouterr().out == rows.getvalue()


class TestJsonWriter:
    """`_write_json` and `_emit` write the bytes of json.dumps(indent=2)."""

    TEXTS = ['"', "\\", "\x7f", "é", "\u2028", "\uffff", "€uro", "\U0001f600", "𝔸", "a/b", ""]
    TEXTS += [chr(c) for c in range(0x20)]

    @classmethod
    def text(cls, rng: random.Random) -> str:
        return "".join(rng.choice(cls.TEXTS) for _ in range(rng.randint(0, 4)))

    @classmethod
    def value(cls, rng: random.Random, depth: int):
        """A seeded value of the written kinds, containers nested up to `depth`."""
        kind = rng.choice(["str", "bool", "int", "dict", "list"] if depth else ["str", "bool", "int"])
        if kind == "str":
            return cls.text(rng)
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "int":
            return rng.choice([0, 1, -1, rng.randint(-10**6, 10**6), rng.randint(-10**40, 10**40)])
        items = [cls.value(rng, depth - 1) for _ in range(rng.choice([0, 0, 1, 2, 4]))]
        return items if kind == "list" else {f"{cls.text(rng)}{k}": v for k, v in enumerate(items)}

    @staticmethod
    def written(value) -> str:
        out = []
        cli._write_json(value, out)
        return "".join(out)

    def test_seeded_values_match_json_dumps(self):
        rng = random.Random(40)
        seen = set()
        for _ in range(600):
            value = self.value(rng, rng.randint(0, 3))
            assert self.written(value) == json.dumps(value, indent=2), value
            seen.add(type(value).__name__)
        assert seen == {"str", "bool", "int", "dict", "list"}
        every_text = {"".join(self.TEXTS): self.TEXTS}
        for value in ({}, [], [[]], {"a": {}}, [{}, [[], {}]], {"x": [True, 1, False, 0, -2]}, every_text):
            assert self.written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, None, (1, 2), {1: "a"}, {"a": [Fraction(1, 2)]}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            self.written(value)

    def test_runs_around_the_default_chunk(self, capsys):
        chunk = cli.LISTING_CHUNK
        counts = [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2]
        for runs in [[("1/3", count)] for count in counts] + [[(f"1/{c}", c) for c in counts]]:
            deltas = [text for text, count in runs for _ in range(count)]
            record = {"N": len(deltas), "deltas": [], "primes": "2"}
            cli._emit("json", record, [], deltas=runs)
            assert capsys.readouterr().out == json.dumps({**record, "deltas": deltas}, indent=2) + "\n"

    def test_listing_is_written_a_chunk_at_a_time(self, monkeypatch):
        """F1 at N = 10^6: no write holds more than one chunk of items and the
        record around the listing; a listing joined whole would be one 15 MB write."""
        writes = []

        class Recorder:
            write = writes.append

            def flush(self):
                pass

        argv = ["gaps", *F1[:4], "--N", "1000000", "--format", "json"]
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        monkeypatch.undo()
        record = json.loads("".join(writes))
        deltas = record.pop("deltas")
        assert len(deltas) == 10**6 and deltas[0] == "1/8192" and deltas[180801 - 1] == "1/4096"
        piece = max(len(f',\n    "{text}"') for text in set(deltas))
        record = {"N": record.pop("N"), "deltas": [], **record}
        bound = cli.LISTING_CHUNK * piece + len(json.dumps(record, indent=2)) + 1
        assert len(writes) > 10**6 // cli.LISTING_CHUNK
        assert max(map(len, writes)) <= bound


class TestVerifyCommand:
    def test_sweep_histogram_totals(self, capsys):
        code = main(["verify", "--primes", "2", "--seed", "42", "--samples", "200",
                     "--max-N", "12", "--max-height", "20", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["histogram"].values()) == 200
        assert payload["all_within_three"] is True

    def test_deterministic_given_seed(self, capsys):
        args = ["verify", "--primes", "all-except:2", "--seed", "7", "--samples", "60",
                "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_failure_ends_with_replay_line(self, capsys, monkeypatch):
        # sample 0 is the first draw of seed 7 at the defaults --max-N 20 and
        # --max-height 30; gap_report raises here if that draw were degenerate
        alpha, N = random_instance(random.Random(7), parse_primes("all-except:2"), 20, 30)
        gap_report(alpha, N)
        four = {Fraction(1, g): g for g in range(1, 5)}
        monkeypatch.setattr(GapReport, "witnesses", property(lambda report: four))
        code = main(["verify", "--primes", "all-except:2", "--seed", "7", "--samples", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("VERIFICATION FAILURE at sample 0: g_N = 4 > 3")
        argv = shlex.split(err.rstrip("\n").splitlines()[-1])
        assert argv[:2] == ["adelic-gaps", "gaps"]
        args = build_parser().parse_args(argv[1:])
        assert args.N == N
        assert parse_alpha(args.alpha, parse_primes(args.primes)) == alpha

    def test_failure_report_is_bounded_at_large_max_n(self, capsys, monkeypatch):
        """The failure report names g_N, the distinct gaps and their least
        witnesses, not the N deltas, so a failing sample at N near 10**12 is
        reported at once."""
        four = {Fraction(1, g): g for g in range(1, 5)}
        monkeypatch.setattr(GapReport, "witnesses", property(lambda report: four))
        with within_seconds(5):
            code = main(["verify", "--primes", "all-except:2", "--seed", "7", "--samples", "5",
                         "--max-N", "1000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0] == "VERIFICATION FAILURE at sample 0: g_N = 4 > 3"
        assert lines[4:6] == ["  distinct gaps (4): 1, 1/2, 1/3, 1/4",
                              "  witnesses: delta_1 = 1, delta_2 = 1/2, delta_3 = 1/3, delta_4 = 1/4"]
        assert len(lines) == 7 and len(err) < 500
        args = build_parser().parse_args(shlex.split(lines[-1])[1:])
        alpha, N = random_instance(random.Random(7), parse_primes("all-except:2"), 10**12, 30)
        assert args.N == N > 10**9
        assert parse_alpha(args.alpha, parse_primes(args.primes)) == alpha

    def test_config_validation(self, capsys):
        """Each bad sweep size exits 1 with its message and nothing on stdout;
        the prime set is parsed first."""
        for flags, message in (
            (["--primes", "2", "--samples", "0"], "samples must be >= 1"),
            (["--primes", "2", "--max-N", "1"], "max-N must be >= 2"),
            (["--primes", "2", "--max-height", "1"], "max-height must be >= 2"),
            (["--primes", "4", "--samples", "0"], "cannot parse prime set '4'"),
        ):
            assert main(["verify", *flags]) == 1, flags
            out, err = capsys.readouterr()
            assert out == "", flags
            assert err.startswith(f"error: {message}"), (flags, err)


class TestPaperCommand:
    def test_pass_exit_zero(self, capsys):
        assert main(["paper"]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["paper", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True

    def test_csv_format(self, capsys):
        assert main(["paper", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "label,quantity,expected,computed,ok"

    def test_json_and_csv_serialization(self, capsys, monkeypatch):
        monkeypatch.setattr(paper_examples, "default_instances",
                            lambda: [sharp_instance(PrimeSet.of(3))])
        assert main(["paper", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert payload["rows"][0]["expected"] == "1/5"
        assert main(["paper", "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0] == "label,quantity,expected,computed,ok"
        assert csv_text.endswith("\n") and "\r" not in csv_text


class TestLatticeCheckCommand:
    def test_f2(self, capsys):
        code = main(["lattice-check", "--primes", "3", "--alpha", "inf=16/5;default=0;3=1",
                     "--N", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches"] == 5
        assert payload["g_N"] == payload["G_N"] == 3
        assert payload["G_scan"] <= 3
        assert payload["chain_ok"] is True

    def test_f1(self, capsys):
        code = main(["lattice-check", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1",
                     "--N", "52"])
        assert code == 0
        assert "52/52 match" in capsys.readouterr().out

    def test_f1_at_n_2000_within_5_seconds(self, capsys):
        # linear in N: each F_value is one prefix-minimum lookup
        with within_seconds(5):
            code = main(["lattice-check", "--primes", "2", "--alpha",
                         "inf=351/100;default=0;2=1", "--N", "2000"])
        assert code == 0
        assert "2000/2000 match" in capsys.readouterr().out


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes its end before the program writes, as `| head -0` would
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "adelic_gaps.cli", "paper"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()


class TestCommandImports:
    """A command loads only the modules it runs: `import adelic_gaps.cli` and
    `gaps` leave out the lattice, the paper examples, csv and shlex."""

    UNUSED_BY_GAPS = {"adelic_gaps.lattice", "adelic_gaps.paper_examples", "csv", "shlex"}
    CHILD = "\n".join([
        "import contextlib, io, json, sys",
        "start = set(sys.modules)",
        "import adelic_gaps.cli",
        "steps = [(None, sorted(set(sys.modules) - start))]",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = adelic_gaps.cli.main(argv)",
        "    steps.append((code, sorted(set(sys.modules) - start)))",
        "print(json.dumps(steps))",
    ])

    def loaded(self, *argvs):
        """(exit code, modules new since start-up) in a fresh interpreter,
        after `import adelic_gaps.cli` and after each `main(argv)` in turn."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", self.CHILD, json.dumps(argvs)], env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        return [(code, set(modules)) for code, modules in json.loads(child.stdout)]

    def test_import_and_gaps_load_no_other_command(self):
        gaps = ["gaps", "--primes", "2", "--alpha", "inf=351/100;default=0;2=1", "--N", "200"]
        steps = self.loaded(gaps, [*gaps, "--format", "json"])
        assert [code for code, _ in steps] == [None, 0, 0]
        assert "adelic_gaps.cli" in steps[0][1]
        for _, modules in steps:
            assert not modules & self.UNUSED_BY_GAPS, modules & self.UNUSED_BY_GAPS

    def test_each_command_loads_its_module(self):
        lattice_check = ["lattice-check", "--primes", "3", "--alpha", "inf=16/5;default=0;3=1",
                         "--N", "5"]
        (_, imported), (code, after_check) = self.loaded(lattice_check)
        assert code == 0 and "adelic_gaps.lattice" in after_check - imported
        assert "adelic_gaps.paper_examples" not in after_check
        (_, imported), (code, after_paper) = self.loaded(["paper"])
        assert code == 0 and "adelic_gaps.paper_examples" in after_paper - imported
        assert "adelic_gaps.lattice" not in after_paper


class TestBoundedErrorMessages:
    """An input echoed in an error message is cut, so stderr stays small."""

    LONG = "1" * 5000

    @pytest.mark.parametrize("primes, alpha, start", [
        ("2", f"inf={LONG}x", "cannot parse rational"),
        (f"2,x{LONG}", "inf=0", "cannot parse prime set"),
        ("2", f"{LONG}x=1", "unknown point key"),
        ("2", f"inf=1;{LONG}", "cannot parse point component"),
    ], ids=["rational", "prime-list", "point-key", "point-component"])
    def test_long_input_is_cut(self, primes, alpha, start, capsys):
        assert main(["gaps", "--primes", primes, "--alpha", alpha, "--N", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start} ")
        assert len(err.encode()) < 400
        assert err.endswith(" characters)\n")

    def test_argument_error_is_cut(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gaps", "--primes", "2", "--alpha", "inf=0", "--N", self.LONG])
        assert excinfo.value.code == 1
        assert len(capsys.readouterr().err.encode()) < 400

    def test_cut_keeps_prefix_and_length(self, capsys):
        limit = cli.ERROR_MESSAGE_CHARS
        for message in ("x" * limit, "y" * (limit + 1)):
            cli._print_error(message)
        at_limit, over = capsys.readouterr().err.splitlines()
        assert at_limit == "error: " + "x" * limit
        assert over == f"error: {'y' * limit}... ({limit + 1} characters)"


Q = 10**30 + 57  # a prime above arith.PRIMALITY_LIMIT
P = 10**20 + 39  # a prime below it


class TestBoundedWork:
    """Inputs with 21- and 31-digit integers are answered or refused within 2 s."""

    @pytest.mark.parametrize("command", ["gaps", "lattice-check"])
    def test_31_digit_default_is_answered(self, command, capsys):
        with within_seconds(2):
            code = main([command, "--primes", "all", "--alpha", f"inf=1/3;default={Q}",
                         "--N", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        if command == "gaps":
            # d(k alpha, 0) < 1/3 needs inf part 0, so k = 3 or 6; there the
            # default kQ - k/3 is even and prime to 3, so the tail term is 1/3
            assert payload["distinct_gaps"] == ["1/3"]
        else:
            assert payload["chain_ok"] is True

    def test_large_override_prime_below_the_limit_is_answered(self, capsys):
        with within_seconds(2):
            code = main(["lattice-check", "--primes", "all-except:2", "--alpha",
                         f"inf=1/3;default=7/{P};{P}=1/{P}", "--N", "6", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["chain_ok"] is True

    @pytest.mark.parametrize("primes, alpha", [
        ("all", f"inf=1/3;{Q}=1"),
        (f"all-except:{Q}", "inf=1/3"),
        ("all", f"inf=1/3;default=1/{Q}"),
    ])
    def test_refused_with_exit_1(self, primes, alpha, capsys):
        with within_seconds(2):
            code = main(["gaps", "--primes", primes, "--alpha", alpha, "--N", "8"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fmt, N", [
        ("gaps", "json", None), ("gaps", "csv", None), ("gaps", "json", 2**63),
        ("lattice-check", "plain", None), ("lattice-check", "json", None),
    ], ids=["json-None", "csv-None", f"json-{2**63}", "lattice-check-plain", "lattice-check-json"])
    def test_listing_above_its_limit_is_refused(self, command, fmt, N, monkeypatch, capsys):
        """A JSON or CSV listing holds all N deltas, and lattice-check walks every
        radius up to N, so above `LISTING_LIMIT` (N None stands for the limit + 1)
        each is refused before any record is computed, with one line that points
        to plain `gaps`; at 2^63 the JSON listing would otherwise overflow
        `itertools.repeat`."""
        def no_report(alpha, N):
            raise AssertionError("gap_report ran")

        monkeypatch.setattr(cli, "gap_report", no_report)
        N = N or cli.LISTING_LIMIT + 1
        with within_seconds(2):
            code = main([command, *F1[:4], "--N", str(N), "--format", fmt])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        work = (f"--format {fmt} lists every delta_n" if command == "gaps"
                else "lattice-check walks every radius up to N")
        assert captured.err == (f"error: {work}, so it takes "
                                f"N <= {cli.LISTING_LIMIT}; plain gaps answers any N\n")


class TestBoundedText:
    """Text outside the rational grammar is refused before any integer is built,
    and a result too long to print exits 1, each with one error line."""

    @staticmethod
    def assert_one_error_line(capsys, start):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {start}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1e5000", "1e99999999", "1.5", "1_000"])
    def test_exponent_decimal_and_separator_forms_are_refused(self, value, capsys):
        with within_seconds(1):
            code = main(["gaps", "--primes", "2", "--alpha", f"inf={value}", "--N", "3"])
        assert code == 1
        self.assert_one_error_line(capsys, f"cannot parse rational '{value}'")

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_result_too_long_to_print_exits_1(self, fmt, capsys):
        # every input integer is under Python's 4300-digit limit on int-to-string
        # conversion, but the first gap's denominator has about 8500 digits
        b = 10**4298 + 1
        code = main(["gaps", "--primes", "2", "--alpha", f"inf=1/{b};2=1/{2**14000}",
                     "--N", "3", "--format", fmt])
        assert code == 1
        self.assert_one_error_line(capsys, "cannot print a result")


F1 = ["--primes", "2", "--alpha", "inf=351/100;default=0;2=1", "--N", "52"]
I1 = ["--primes", "all-except:2", "--alpha", "inf=1/9;default=0;3=1", "--N", "11"]
F2 = ["--primes", "3", "--alpha", "inf=16/5;default=0;3=1", "--N", "5"]
COFINITE = ["--primes", "all-except:2,3,5,7", "--alpha", "inf=-7/3;default=10;11=1/4;13=5",
            "--N", "2000"]
SWEEP = ["--primes", "all-except:2", "--seed", "7", "--samples", "500", "--max-N", "30"]
# a torsion alpha: 3*alpha lies in Gamma_{2}, so its records stop at k = 1
TORSION = ["--primes", "2", "--alpha", "inf=1/3;default=1/3"]

# SHA-256 of f"{exit code}\0{stdout}\0{stderr}" for whole runs of `main`
GOLDEN = {
    "paper-plain": (
        ["paper"],
        "917e83e88de813b52c144956d510e4f9116dcf56df420ebfe186b99c3ec393fd",
    ),
    "paper-json": (
        ["paper", "--format", "json"],
        "9403081105821141a26bd135aaf1e07259982cc3fd63bc2ae16128f819280cb7",
    ),
    "paper-csv": (
        ["paper", "--format", "csv"],
        "41094d64313b8edcc9cd110cff6917716f15b4f149a0250d9c94ddb14f95e0aa",
    ),
    "gaps-F1-plain": (
        ["gaps", *F1],
        "ae36c4363a36b760eaa174b0ee3bdd76f13321fae07ba4de6f0977d355037f31",
    ),
    "gaps-F1-json": (
        ["gaps", *F1, "--format", "json"],
        "90873de3bccb0ed09085ddd4fcbe4c160c0e279433e26b17c4f3d53f406cdca2",
    ),
    "gaps-F1-csv": (
        ["gaps", *F1, "--format", "csv"],
        "a2f11591b1b30dd7ee5b08d6ae43b275e1ff0bc76602fcb3fcb049c9486b522f",
    ),
    "gaps-I1-plain": (
        ["gaps", *I1],
        "a30cdc89fe4d30f90d488b239146d5b457d126324cd97cd93ef7e705ea0c552d",
    ),
    "lattice-check-F1-plain": (
        ["lattice-check", *F1],
        "419306a96515dbb087ad7cdcfce315c8c747deb564aa9cdf728c10c36c90b9f6",
    ),
    "lattice-check-F1-json": (
        ["lattice-check", *F1, "--format", "json"],
        "ba6ff5395e08e5b449a1a4ea4c5d022a460d4c77d82df096cf859c01aa387744",
    ),
    "lattice-check-I1-plain": (
        ["lattice-check", *I1],
        "ea04e19c4fdde6c74d0b9f97d75d44275a14c9fd2d26373747f488b625acb3aa",
    ),
    "lattice-check-I1-json": (
        ["lattice-check", *I1, "--format", "json"],
        "2d13cf9455dbe46292a8520eac80bf577e8c2d17aadfbb8081e5a782bbfe8652",
    ),
    "lattice-check-F2-plain": (
        ["lattice-check", *F2],
        "f8675e13618524d63a51aba7d03bef7b8e76eab1dc0f35c54c2a008b5033f07b",
    ),
    "lattice-check-F2-json": (
        ["lattice-check", *F2, "--format", "json"],
        "cc710fd639ba910919c487680cc97b22d26cb72e8ca1c6854c9a787083718794",
    ),
    "lattice-check-cofinite-plain": (
        ["lattice-check", *COFINITE],
        "fdca401a62bcdaf023494490346a816e02fac7b55af8001d768c43ba52b004c8",
    ),
    "lattice-check-cofinite-json": (
        ["lattice-check", *COFINITE, "--format", "json"],
        "1261b2021aa04de6bf4309a46df9030d47cff5f10863bb04d15cb06befb3125a",
    ),
    "gaps-cofinite-json": (
        ["gaps", *COFINITE, "--format", "json"],
        "4c981481a1ae2762fb209bc272791932dd427d9fb8cb3285253a33cb9e9e3c96",
    ),
    "gaps-cofinite-csv": (
        ["gaps", *COFINITE, "--format", "csv"],
        "88daf5f70a32be6d35823bb0590bb6e0f9058118e41a503d0527b1186cf41d1f",
    ),
    "gaps-torsion-even-json": (
        ["gaps", *TORSION, "--N", "10", "--format", "json"],
        "3c7168f1cfaff8436f016a152e0fbe25d8524508ca03a7eb9ae6447ce56e04df",
    ),
    "gaps-torsion-even-csv": (
        ["gaps", *TORSION, "--N", "10", "--format", "csv"],
        "22bc3bfa512b0c230d60989f85b8a7b4f6e37d362204225e8c72482bb3dfb60c",
    ),
    "gaps-torsion-odd-json": (
        ["gaps", *TORSION, "--N", "11", "--format", "json"],
        "f3f33289653cefe854fbf57920e6cb51f2fb01195baea295d9c4f7bb3c1d9f9b",
    ),
    "gaps-torsion-odd-csv": (
        ["gaps", *TORSION, "--N", "11", "--format", "csv"],
        "49fcd4e52794a81038d1ff66dcf7a3e1b24c9855bcb56d1898a16011e071c070",
    ),
    "verify-plain": (
        ["verify", *SWEEP],
        "8902ea19c048be88f48ea32ffb913cc5cc27c23fcfcac61e6432e26f8a5fab8b",
    ),
    "verify-json": (
        ["verify", *SWEEP, "--format", "json"],
        "20170132113c8fda7965236616ca0b65ed17db8c86d0e574e4357eda5228066f",
    ),
    "gaps-degenerate": (
        ["gaps", "--primes", "2", "--alpha", "inf=1;default=0;2=1", "--N", "4"],
        "eca492c11d12e2c30e9f8532278602e4f0ca63bc5372a88dc5cbd0cacb92fb39",
    ),
    "gaps-N-0": (
        ["gaps", *F1[:4], "--N", "0"],
        "681fbd5917bffc36315f4035d6012656a39afc8c7e93eb9caaeb977d1547d66e",
    ),
}


def output_digest(argv, capsys) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    return hashlib.sha256(f"{code}\0{captured.out}\0{captured.err}".encode()).hexdigest()


class TestGoldenOutput:
    """Every subcommand and format, byte for byte, including the error exits."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_output(self, name, capsys):
        argv, digest = GOLDEN[name]
        assert output_digest(argv, capsys) == digest


class TestOneParsePass:
    """`main` hands a command's arguments to that command's parser; help and
    errors take the whole parser's pass.  Both sides run in this interpreter,
    since argparse's wording differs between Python versions."""

    @staticmethod
    def outcome(call, capsys):
        """(result or ("exit", code), stdout, stderr) of `call()`."""
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
        out, err = capsys.readouterr()
        return result, out, err

    @staticmethod
    def without_command(args):
        return {key: value for key, value in vars(args).items() if key != "command"}

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["nosuch"],
        ["gaps", "--help"], ["lattice-check", "--help"],
        ["gaps", "--primes", "2", "--N", "52"],
        ["gaps", *F1, "--format", "xml"],
        ["gaps", *F1[:4], "--N", "x"],
        ["gaps", *F1, "--bogus", "1"],
        ["verify", "extra"],
        ["gaps", "--prim", *F1[1:]],
        ["gaps", *F1[:4], "--N=52"],
        ["gaps", *F1[:4], "--N", "-3"],
    ], ids=["none", "help", "unknown-command", "gaps-help", "lattice-check-help",
            "no-alpha", "bad-format", "bad-N", "bogus-option", "verify-extra",
            "abbreviation", "equals-sign", "negative-N"])
    def test_main_exits_and_parses_as_the_whole_parser(self, argv, capsys, monkeypatch):
        parser = build_parser()
        seen = []

        def record(args):
            seen.append(args)
            return 0

        for command in parser.commands.values():
            command.set_defaults(func=record)
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        dispatched = self.outcome(lambda: main(list(argv)), capsys)
        whole = self.outcome(lambda: parser.parse_args(list(argv)), capsys)
        if isinstance(whole[0], tuple):
            assert whole[0][1] in (0, 1)
            assert dispatched == whole and not seen
        else:
            assert dispatched == (0, "", "")
            assert self.without_command(seen[0]) == self.without_command(whole[0])

    @pytest.mark.parametrize("extra", [[], ["--bogus", "1"]], ids=["clean", "bogus-option"])
    def test_main_reads_sys_argv(self, extra, capsys, monkeypatch):
        argv = ["gaps", *F1, *extra]
        expected = self.outcome(lambda: main(list(argv)), capsys)
        monkeypatch.setattr(sys, "argv", ["adelic-gaps", *argv])
        assert self.outcome(main, capsys) == expected
        if extra:
            whole = self.outcome(lambda: cli._parser().parse_args(), capsys)
            assert expected == whole and whole[0] == ("exit", 1)
        else:
            assert expected[0] == 0 and "distinct gaps (3)" in expected[1]

