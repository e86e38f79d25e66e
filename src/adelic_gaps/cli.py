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
import os
import random
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote  # json's own, ensure_ascii

from .adele import AdelePoint, PrimeSet, reduce
from .torus_gaps import DegenerateOrbitError, gap_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
ERROR_MESSAGE_CHARS = 200
#: The largest N for the commands whose work is O(N), where plain `gaps`
#: answers any N from the records: `gaps --format json|csv` lists every delta
#: (at this N, 0.09-0.16 s for JSON and 2 s for CSV, streamed in
#: `LISTING_CHUNK` items, so memory stays near the interpreter's own size), and
#: `lattice-check` walks every radius up to N in O(drops) memory (at this N,
#: ten CLI runs took 0.16-0.20 s on F1 and 7.4-8.2 s on `all`, Python 3.11).
LISTING_LIMIT = 10**7
#: The most listing items `_emit` holds as text at once (about 60 kB of text on F1).
LISTING_CHUNK = 1 << 12


class CliError(Exception):
    """Bad user input (parse or usage); mapped to exit code 1."""


#: The documented rational grammar.  `Fraction` alone would also take exponent
#: forms such as 1e99999999, whose integer it builds before any bound applies.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    try:
        match = _RATIONAL.fullmatch(text.strip())
        if match is None:
            raise ValueError("expected a/b or a, with a and b integers")
        num, den = match.groups()
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}: {exc}") from None


def parse_primes(text: str) -> PrimeSet:
    text = text.strip()
    if text == "all":
        return PrimeSet.all_primes()
    body = text.removeprefix("all-except:")
    try:
        listed = sorted(int(tok) for tok in body.split(",") if tok)
        primes = PrimeSet(body == text, tuple(dict.fromkeys(listed)))
    except ValueError as exc:
        raise CliError(f"cannot parse prime set {text!r}: {exc}") from None
    if len(primes.listed) < len(listed):  # the list is sorted here, so only a repeat is refused
        raise CliError(f"repeated prime {next(p for p, q in zip(listed, listed[1:]) if p == q)}")
    return primes


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


def _text(r: Fraction) -> str:
    """A computed rational as "a/b": one with a term longer than Python's limit on
    int-to-string conversion is refused with exit 1, not a ValueError."""
    try:
        return str(r)
    except ValueError:
        raise CliError("cannot print a result: it has an integer over Python's digit limit "
                       "for int-to-string conversion") from None


def _write_json(value, out: list[str], indent: str = "\n", deltas=()) -> None:
    """Append to `out` the json module's indent=2 text of `value`, of dicts with
    str keys, lists, str, bool and int only, but a key "deltas" from the runs
    `deltas` (see `_emit`), handing `out` to stdout at each LISTING_CHUNK items."""
    kind, inner, sep = type(value), indent + "  ", ""
    if kind is str:
        out.append(_quote(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        for key, item in value.items():
            out.append(f"{sep or '{'}{inner}{_quote(key)}: ")
            if deltas and key == "deltas":  # each distinct text quoted once, with its comma
                pieces, held = {t: f"{inner}  {_quote(t)}," for t, _ in deltas}, 0
                out.append("[")
                for text, count in deltas:
                    while count:
                        if held == LISTING_CHUNK:
                            sys.stdout.write("".join(out))
                            out[:], held = [], 0
                        n = min(count, LISTING_CHUNK - held)
                        out.append(pieces[text] * n)
                        held, count = held + n, count - n
                out[-1] = out[-1][:-1] + inner + "]"  # the last item has no comma
            else:
                _write_json(item, out, inner)
            sep = ","
        out.append(indent + "}" if value else "{}")
    elif kind is list:
        for item in value:
            out.append((sep or "[") + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "]" if value else "[]")
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _emit(fmt: str, record: dict, lines: list[str], rows: Iterable[Sequence] = (),
          deltas: Sequence[tuple[str, int]] = ()) -> None:
    """Print one result: `record` as JSON, `rows` (header first, read only for
    CSV) as CSV, else `lines`.

    `deltas`, if given, is the listing delta_1, ..., delta_N as runs (text,
    count) in order, written at most LISTING_CHUNK items at a time, so its
    memory does not grow with N: in JSON the array record["deltas"], which
    holds [] in its place (`_write_json`; a record is one write unless its
    listing fills a chunk), in CSV the rows n,text after `rows`, n counting
    from 1, a chunk one `str.join` of its row numbers (a rational's text
    holds nothing that csv.writer would quote).
    """
    if fmt == "json":
        out: list[str] = []
        _write_json(record, out, deltas=deltas)
        sys.stdout.write("".join(out) + "\n")
    elif fmt == "csv":
        import csv  # here, not at the top: only CSV output uses it

        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        n = 1
        for text, count in deltas:
            row_end = f",{text}\n"
            for start in range(n, n + count, LISTING_CHUNK):
                stop = min(start + LISTING_CHUNK, n + count)
                print(row_end.join(map(str, range(start, stop))), end=row_end)
            n += count
    else:
        print("\n".join(lines))


def cmd_gaps(args) -> int:
    primes = parse_primes(args.primes)
    alpha = parse_alpha(args.alpha, primes)
    if args.N < 1:
        raise CliError(f"N must be >= 1, got {args.N}")
    if args.format != "plain" and args.N > LISTING_LIMIT:
        raise CliError(f"--format {args.format} lists every delta_n, so it takes N <= "
                       f"{LISTING_LIMIT}; plain gaps answers any N")
    report = gap_report(alpha, args.N)
    # every run's value is one of the distinct gap objects, so each string is
    # made once and found by identity: hashing a Fraction costs more than
    # printing it; the listing is written from the runs, never item by item
    text = {id(g): _text(g) for g in report.distinct_gaps}
    plain = args.format == "plain"
    runs = [] if plain else [(text[id(v)], count) for v, count in report.runs]
    record = {
        "N": report.N,
        "deltas": [],
        "distinct_gaps": list(text.values()),
        "gap_count": report.gap_count,
        "witnesses": {text[id(g)]: n for g, n in report.witnesses.items()},
        "alpha": str(alpha),
        "primes": str(primes),
    }
    lines = [
        f"alpha = {record['alpha']}   primes = {record['primes']}   N = {args.N}",
        f"distinct gaps ({report.gap_count}): " + ", ".join(record["distinct_gaps"]),
        "witnesses: " + ", ".join(f"delta_{n} = {g}" for g, n in record["witnesses"].items()),
    ] if plain else []
    _emit(args.format, record, lines, [("n", "delta")], runs)
    return EXIT_OK


def cmd_verify(args) -> int:
    primes = parse_primes(args.primes)
    if args.samples < 1:
        raise CliError("samples must be >= 1")
    if args.max_N < 2:
        raise CliError("max-N must be >= 2")
    if args.max_height < 2:
        raise CliError("max-height must be >= 2")
    rng = random.Random(args.seed)
    histogram = {1: 0, 2: 0, 3: 0}
    for i in range(args.samples):
        while True:  # a degenerate draw is redrawn
            alpha, N = random_instance(rng, primes, args.max_N, args.max_height)
            try:
                report = gap_report(alpha, N)
            except DegenerateOrbitError:
                continue
            break
        if report.gap_count > 3:
            import shlex  # here, not at the top: only this report uses it
            # the gaps and their least witnesses, not the N deltas: N may be 10^12
            gaps = {_text(g): n for g, n in report.witnesses.items()}
            print(
                f"VERIFICATION FAILURE at sample {i}: g_N = {report.gap_count} > 3\n"
                f"  alpha = {alpha}\n  primes = {primes}\n  N = {N}\n"
                f"  distinct gaps ({report.gap_count}): {', '.join(gaps)}\n"
                f"  witnesses: {', '.join(f'delta_{n} = {g}' for g, n in gaps.items())}\n"
                f"adelic-gaps gaps --primes {shlex.quote(str(primes))} "
                f"--alpha {shlex.quote(str(alpha))} --N {N}",
                file=sys.stderr,
            )
            return EXIT_VERIFICATION
        histogram[report.gap_count] += 1
    record = {
        "seed": args.seed,
        "samples": args.samples,
        "primes": str(primes),
        "histogram": {str(g): c for g, c in histogram.items()},
        "all_within_three": True,
    }
    lines = [
        f"{args.samples} samples over primes {primes} (seed {args.seed})",
        *(f"  g = {g}: {c}" for g, c in histogram.items()),
        "all samples satisfy g <= 3",
    ]
    _emit(args.format, record, lines)
    return EXIT_OK


def cmd_paper(args) -> int:
    from .paper_examples import reproduce_all  # only `paper` loads paper_examples

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
    from .lattice import RotationMatrixSpec, G_N_value, delta_via_lattice, scan_G  # only here

    primes = parse_primes(args.primes)
    alpha = parse_alpha(args.alpha, primes)
    N = args.N
    if N < 1:
        raise CliError(f"N must be >= 1, got {N}")
    if N > LISTING_LIMIT:
        raise CliError(f"lattice-check walks every radius up to N, so it takes N <= "
                       f"{LISTING_LIMIT}; plain gaps answers any N")
    # both sides start from the one reduced alpha, whose object carries the
    # lattice table that every spec here reads, and are compared run by run.
    # The lattice delta_n is the table's prefix minimum at the radius
    # max(n - 1, N - n), which is monotone in n on each side of ceil(N/2), and
    # no run of the report crosses it; a radius's minimum is the table's value
    # at its drop count, so a run matches at every n when the drop count is
    # equal at its two end radii and delta_via_lattice at one end equals its
    # value.  A run that fails is compared n by n, so every mismatch is
    # listed, in n order.
    alpha_bar = reduce(alpha)[0]
    report = gap_report(alpha_bar, N)
    spec = RotationMatrixSpec(alpha_bar, N)
    mismatches = []
    first = 1
    for direct, count in report.runs:
        last = first + count - 1
        if (spec.drop_count(max(first - 1, N - first)) != spec.drop_count(max(last - 1, N - last))
                or delta_via_lattice(alpha_bar, N, first) != direct):
            for n in range(first, last + 1):
                via_lattice = delta_via_lattice(alpha_bar, N, n)
                if direct != via_lattice:
                    mismatches.append((n, _text(direct), _text(via_lattice)))
        first = last + 1
    g_n_count = G_N_value(spec)
    scan = scan_G(spec)
    chain_ok = report.gap_count == g_n_count <= scan.distinct_count
    record = {
        "alpha": str(alpha),
        "primes": str(primes),
        "N": N,
        "matches": N - len(mismatches),
        "mismatches": [
            {"n": n, "direct": a, "lattice": b} for n, a, b in mismatches
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


def _print_error(message: str) -> None:
    """Print `error: <message>` to stderr, a message over ERROR_MESSAGE_CHARS
    characters cut to that prefix and its length: it may echo a whole input,
    which can be thousands of digits."""
    if len(message) > ERROR_MESSAGE_CHARS:
        message = f"{message[:ERROR_MESSAGE_CHARS]}... ({len(message)} characters)"
    print(f"error: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error(message)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adelic-gaps",
        description="Exact gap statistics for rotation orbits on adelic tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command word -> its parser, read by `main`

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
        # a clean call's arguments go to its command's parser alone, as the
        # whole parser hands them on; help and errors take the whole parser's pass
        argv = sys.argv[1:] if argv is None else argv
        command = _parser().commands.get(argv[0]) if argv else None
        args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
        if command is None or rest:
            args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, DegenerateOrbitError) as exc:
        _print_error(str(exc))
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush of the unwritten rest stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
