import csv
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from adelic_gaps import PrimeSet, build_F2, reproduce_all
from adelic_gaps import cli
from adelic_gaps.cli import (
    CliError,
    SweepConfig,
    build_parser,
    main,
    parse_alpha,
    parse_primes,
    parse_rational,
    run_sweep,
)

from conftest import within_seconds


class TestParsing:
    def test_rationals(self):
        assert parse_rational("351/100") == Fraction(351, 100)
        assert parse_rational("-7") == Fraction(-7)
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
        config = SweepConfig(7, 1, 20, 30, parse_primes("all-except:2"))
        _, alpha, N, _ = next(run_sweep(config))
        real_gap_report = cli.gap_report
        monkeypatch.setattr(
            cli, "gap_report", lambda a, n: dataclasses.replace(real_gap_report(a, n), gap_count=4)
        )
        code = main(["verify", "--primes", "all-except:2", "--seed", "7", "--samples", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("VERIFICATION FAILURE at sample 0: g_N = 4 > 3")
        argv = shlex.split(err.rstrip("\n").splitlines()[-1])
        assert argv[:2] == ["adelic-gaps", "gaps"]
        args = build_parser().parse_args(argv[1:])
        assert args.N == N
        assert parse_alpha(args.alpha, parse_primes(args.primes)) == alpha

    def test_config_validation(self):
        with pytest.raises(CliError):
            SweepConfig(0, 0, 10, 10, PrimeSet.of(2))
        with pytest.raises(CliError):
            SweepConfig(0, 10, 1, 10, PrimeSet.of(2))
        with pytest.raises(CliError):
            SweepConfig(0, 10, 10, 1, PrimeSet.of(2))

    def test_run_sweep_reports_in_sample_order(self):
        config = SweepConfig(3, 10, 8, 15, PrimeSet.of(2, 3))
        indices = [i for i, *_ in run_sweep(config)]
        assert indices == list(range(10))


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
        monkeypatch.setattr(cli, "reproduce_all", lambda: reproduce_all([build_F2()]))
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



def test_closed_stdout_pipe_exits_quietly():
    # the reader closes its end before the program writes, as `| head -0` would
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "adelic_gaps.cli", "paper"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()

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


F1 = ["--primes", "2", "--alpha", "inf=351/100;default=0;2=1", "--N", "52"]
I1 = ["--primes", "all-except:2", "--alpha", "inf=1/9;default=0;3=1", "--N", "11"]
SWEEP = ["--primes", "all-except:2", "--seed", "7", "--samples", "500", "--max-N", "30"]

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
