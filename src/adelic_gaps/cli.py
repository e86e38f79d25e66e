"""Command-line front end.

Subcommands:
  gaps           gap report for one (alpha, N) instance
  verify         seeded random sweep asserting the three-gap bound
  paper          bit-exact reproduction table of the published examples
  lattice-check  cross-validate the direct and lattice gap computations

Point grammar:   inf=<rat>;default=<rat>;<p>=<rat>;...   with <rat> = a/b or a
Prime sets:      "2,3,5" (finite), "all", or "all-except:2,3" (cofinite)
Rationals serialize as "a/b" strings in JSON/CSV, never as floats.

Exit codes: 0 success, 1 usage or parse error, a degenerate orbit, or stdout
closed by its reader, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shlex
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .adele import AdelePoint, PrimeSet
from .lattice import RotationMatrixSpec, G_N_value, delta_via_lattice, scan_G
from .paper_examples import reproduce_all
from .torus_gaps import DegenerateOrbitError, gap_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class CliError(Exception):
    """Bad user input (parse or usage); mapped to exit code 1."""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}: {exc}") from None


def parse_primes(text: str) -> PrimeSet:
    text = text.strip()
    try:
        if text == "all":
            return PrimeSet.all_primes()
        if text.startswith("all-except:"):
            body = text[len("all-except:") :]
            return PrimeSet.all_except(*(int(tok) for tok in body.split(",") if tok))
        return PrimeSet.of(*(int(tok) for tok in text.split(",") if tok))
    except ValueError as exc:
        raise CliError(f"cannot parse prime set {text!r}: {exc}") from None


def parse_alpha(text: str, primes: PrimeSet) -> AdelePoint:
    coords: dict = {}  # "inf", "default" or an override prime -> its rational
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"cannot parse point component {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("inf", "default"):
            try:
                key = int(key)
            except ValueError:
                raise CliError(f"unknown point key {key!r}") from None
        if key in coords:
            raise CliError(f"repeated point key {key}")
        coords[key] = parse_rational(value)
    at_infinity = coords.pop("inf", 0)
    default = coords.pop("default", 0)
    try:
        return AdelePoint(at_infinity, default, coords, primes)
    except ValueError as exc:
        raise CliError(f"invalid point: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    seed: int
    samples: int
    max_N: int
    max_height: int
    primeset_spec: PrimeSet

    def __post_init__(self):
        if self.samples < 1:
            raise CliError("samples must be >= 1")
        if self.max_N < 2:
            raise CliError("max-N must be >= 2")
        if self.max_height < 2:
            raise CliError("max-height must be >= 2")


def random_rational(rng: random.Random, max_height: int) -> Fraction:
    return Fraction(rng.randint(-max_height, max_height), rng.randint(1, max_height))


def random_point(rng: random.Random, primes: PrimeSet, max_height: int) -> AdelePoint:
    """Uniform-height coordinate at infinity, default 0, random small-prime overrides."""
    overrides = {}
    for p in primes.first_members(4):
        if rng.random() < 0.4:
            overrides[p] = random_rational(rng, max_height)
    return AdelePoint(random_rational(rng, max_height), 0, overrides, primes)


def random_instance(
    rng: random.Random, primes: PrimeSet, max_N: int, max_height: int
) -> tuple[AdelePoint, int]:
    """One sampled (alpha, N): a random_point, then N uniform in [2, max_N]."""
    alpha = random_point(rng, primes, max_height)
    return alpha, rng.randint(2, max_N)


def run_sweep(config: SweepConfig):
    """Yield (index, alpha, N, report) for each sample; degenerate draws are redrawn."""
    rng = random.Random(config.seed)
    for i in range(config.samples):
        while True:
            alpha, N = random_instance(rng, config.primeset_spec, config.max_N, config.max_height)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            break
        yield i, alpha, N, report


def _emit(fmt: str, record: dict, lines: list[str], rows: list[list] | None = None) -> None:
    """Print one result: `record` as JSON, `rows` (header first) as CSV, else `lines`."""
    if fmt == "json":
        print(json.dumps(record, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        print("\n".join(lines))


def cmd_gaps(args) -> int:
    primes = parse_primes(args.primes)
    alpha = parse_alpha(args.alpha, primes)
    if args.N < 1:
        raise CliError(f"N must be >= 1, got {args.N}")
    report = gap_report(alpha, args.N)
    deltas = [str(d) for d in report.deltas]
    record = {
        "N": report.N,
        "deltas": deltas,
        "distinct_gaps": [str(g) for g in report.distinct_gaps],
        "gap_count": report.gap_count,
        "witnesses": {str(g): n for g, n in report.witnesses.items()},
        "alpha": str(alpha),
        "primes": str(primes),
    }
    lines = [
        f"alpha = {alpha}   primes = {primes}   N = {args.N}",
        f"distinct gaps ({report.gap_count}): " + ", ".join(record["distinct_gaps"]),
        "witnesses: " + ", ".join(f"delta_{n} = {g}" for g, n in record["witnesses"].items()),
    ]
    rows = [["n", "delta"], *([n, d] for n, d in enumerate(deltas, start=1))]
    _emit(args.format, record, lines, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = SweepConfig(args.seed, args.samples, args.max_N, args.max_height, parse_primes(args.primes))
    histogram = {1: 0, 2: 0, 3: 0}
    for i, alpha, N, report in run_sweep(config):
        if report.gap_count > 3:
            print(
                f"VERIFICATION FAILURE at sample {i}: g_N = {report.gap_count} > 3\n"
                f"  alpha = {alpha}\n  primes = {alpha.primes}\n  N = {N}\n"
                f"  deltas = {[str(d) for d in report.deltas]}\n"
                f"adelic-gaps gaps --primes {shlex.quote(str(alpha.primes))} "
                f"--alpha {shlex.quote(str(alpha))} --N {N}",
                file=sys.stderr,
            )
            return EXIT_VERIFICATION
        histogram[report.gap_count] += 1
    record = {
        "seed": config.seed,
        "samples": config.samples,
        "primes": str(config.primeset_spec),
        "histogram": {str(g): c for g, c in histogram.items()},
        "all_within_three": True,
    }
    lines = [
        f"{config.samples} samples over primes {config.primeset_spec} (seed {config.seed})",
        *(f"  g = {g}: {c}" for g, c in histogram.items()),
        "all samples satisfy g <= 3",
    ]
    _emit(args.format, record, lines)
    return EXIT_OK


def cmd_paper(args) -> int:
    table = reproduce_all()
    record = {"all_pass": table.all_pass, "rows": [vars(r) for r in table.rows]}
    failures = sum(not r.ok for r in table.rows)
    lines = [
        f"{'label':<16} {'quantity':<10} {'expected':>12} {'computed':>12}  result",
        *(f"{r.label:<16} {r.quantity:<10} {r.expected:>12} {r.computed:>12}  "
          + ("PASS" if r.ok else "FAIL") for r in table.rows),
        f"{failures} FAILURES" if failures else "ALL PASS",
    ]
    rows = [list(record["rows"][0]), *(list(row.values()) for row in record["rows"])]
    _emit(args.format, record, lines, rows)
    return EXIT_OK if table.all_pass else EXIT_VERIFICATION


def cmd_lattice_check(args) -> int:
    primes = parse_primes(args.primes)
    alpha = parse_alpha(args.alpha, primes)
    N = args.N
    if N < 1:
        raise CliError(f"N must be >= 1, got {N}")
    report = gap_report(alpha, N)
    mismatches = []
    for n in range(1, N + 1):
        direct = report.deltas[n - 1]
        via_lattice = delta_via_lattice(alpha, N, n)
        if direct != via_lattice:
            mismatches.append((n, direct, via_lattice))
    spec = RotationMatrixSpec(alpha, N)
    g_n_count = G_N_value(spec)
    scan = scan_G(spec)
    chain_ok = report.gap_count == g_n_count <= scan.distinct_count
    record = {
        "alpha": str(alpha),
        "primes": str(primes),
        "N": N,
        "matches": N - len(mismatches),
        "mismatches": [
            {"n": n, "direct": str(a), "lattice": str(b)} for n, a, b in mismatches
        ],
        "g_N": report.gap_count,
        "G_N": g_n_count,
        "G_scan": scan.distinct_count,
        "chain_ok": chain_ok,
    }
    lines = [
        f"alpha = {alpha}   primes = {primes}   N = {N}",
        f"direct vs lattice deltas: {record['matches']}/{N} match",
        *(f"  MISMATCH n={n}: direct {a} != lattice {b}" for n, a, b in mismatches),
        f"g_N = {report.gap_count}, G_N = {g_n_count}, G(scan) = {scan.distinct_count}",
        f"chain g_N = G_N <= G: {'holds' if chain_ok else 'VIOLATED'}",
    ]
    _emit(args.format, record, lines)
    if mismatches or not chain_ok:
        return EXIT_VERIFICATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adelic-gaps",
        description="Exact gap statistics for rotation orbits on adelic tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("plain", "json", "csv")):
        p.add_argument("--format", choices=choices, default="plain")

    p = sub.add_parser("gaps", help="gap report for one instance")
    p.add_argument("--primes", required=True, help='prime set: "2,3", "all", "all-except:2"')
    p.add_argument("--alpha", required=True, help='point, e.g. "inf=351/100;default=0;2=1"')
    p.add_argument("--N", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser(
        "verify",
        help="seeded random sweep asserting g <= 3",
        description="Samples alpha with uniform-height rational coordinates and "
        "overrides on a random subset of the four smallest primes of the set; "
        "deterministic for a fixed seed.",
    )
    p.add_argument("--primes", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-N", type=int, default=20)
    p.add_argument("--max-height", type=int, default=30)
    add_format(p, choices=("plain", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper", help="reproduce the published sharpness examples exactly")
    add_format(p)
    p.set_defaults(func=cmd_paper)

    p = sub.add_parser("lattice-check", help="cross-validate direct and lattice gap paths")
    p.add_argument("--primes", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, required=True)
    add_format(p, choices=("plain", "json"))
    p.set_defaults(func=cmd_lattice_check)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call.

    Building it costs about ten times as much as a parse, and a parse leaves
    it unchanged, so in-process callers share it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, DegenerateOrbitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush of the unwritten rest stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
