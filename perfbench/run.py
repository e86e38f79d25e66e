"""Benchmark of the adelic-gaps CLI, stdlib only.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every operation is one in-process call to `adelic_gaps.cli.main(argv)` with
`--format json` and captured output, made by one client in a closed loop (the
next call starts when the previous one returns).  The argv lists are generated
from the seed during set-up (see workloads.py).  `--trace 0` measures the
end-to-end metrics; `--trace 1` runs a fixed, seed-determined list of calls
twice, untraced and then traced (see tracing.py), and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it repeat
every metric by name with its unit.  `--workload all` runs every workload in
its own child process and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # digests and span files
SETUP_REPEATS = 5
CHECK_EVERY = 4  # gaps calls whose delta_n is cross-checked against the lattice path

# The speed of a shared host drifts by 15-20% over tens of seconds, so a run
# that lands in a fast or a slow period reads that much off.  The benchmark
# therefore times a fixed reference kernel between calls, at least every
# SAMPLE_EVERY_S, and reports each call's time in reference seconds: its wall
# time times REFERENCE_S over the median kernel time within SMOOTH_S of the
# call.  On a host where the kernel takes REFERENCE_S, reference seconds are
# wall seconds.
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.5
SMOOTH_S = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "invocations_per_s": "1/s",
    "orbit_points_per_s": "points/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class Deadline(BaseException):
    """Raised by SIGALRM inside a call that ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's two styles, small-Fraction arithmetic
    and trial division of a 19-digit integer, about half the time each; never edited."""
    acc = 0
    for i in range(1, 1500):
        x = Fraction(i % 61 - 30, i % 59 + 1) - Fraction(i % 7, 11)
        acc += x.numerator % 7 + (x > 0)
    n, d = 1_000_000_007 * 998_244_353, 3
    while d < 60_000:
        acc += n % d == 0
        d += 2
    return acc


def speed_sample() -> tuple[float, float]:
    """(time, REFERENCE_S over the kernel's time now)."""
    t0 = time.perf_counter()
    reference_kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, REFERENCE_S / (t1 - t0)


def assign_scales(results, samples) -> None:
    """Each call's scale: the median speed factor of the samples within SMOOTH_S of it."""
    times = [t for t, _ in samples]
    for r in results:
        mid = r.started + r.elapsed / 2
        lo = bisect.bisect_left(times, mid - SMOOTH_S)
        hi = bisect.bisect_right(times, mid + SMOOTH_S)
        near = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
        r.scale = statistics.median(f for _, f in near)


@dataclass
class Result:
    index: int
    status: str  # "ok", "exit <code>", "deadline" or "exception <type>"
    output: str
    elapsed: float  # wall seconds
    started: float  # time.perf_counter() at the start of the call
    checked: str = ""  # empty if the output check passed, else why it failed
    scale: float = 1.0  # speed factor around the call: elapsed * scale is in reference seconds

    @property
    def failed(self) -> bool:
        return self.status != "ok" or bool(self.checked)


# --------------------------------------------------------------------------- set-up


def _import_program():
    for name in [m for m in sys.modules if m == "adelic_gaps" or m.startswith("adelic_gaps.")]:
        del sys.modules[name]
    importlib.import_module("adelic_gaps")
    return importlib.import_module("adelic_gaps.cli")


def setup(name: str, seed: int):
    """Import the program and generate the inputs, SETUP_REPEATS times.

    Returns the median set-up time in reference seconds and in wall seconds.
    """
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        calls = None  # so that two input lists never coexist and raise peak_rss_mb
        t0 = time.perf_counter()
        cli = _import_program()
        calls = workloads.generate(name, seed)
        wall.append(time.perf_counter() - t0)
        times.append(wall[-1] * speed_sample()[1])
    return cli, calls, statistics.median(times), statistics.median(wall)


# --------------------------------------------------------------------------- calls


def invoke(cli, call: workloads.Call, index: int, deadline_s: float) -> Result:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            code = cli.main(list(call.argv))
            status = "ok" if code == 0 else f"exit {code}"
        except Deadline:
            status = "deadline"
        except Exception as exc:  # a crash in one call is a failed call, not a failed run
            status = f"exception {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
    return Result(index, status, buf.getvalue(), elapsed, t0)


def run_list(cli, calls, indices, deadline_s, before_call=None) -> list[Result]:
    results = []
    for i in indices:
        if before_call:
            before_call(i)
        results.append(invoke(cli, calls[i % len(calls)], i, deadline_s))
    return results


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(cli, workload, calls, seconds: float) -> tuple[list[Result], float | None]:
    """Whole blocks of calls until `seconds` have passed, with speed samples between calls.

    Also returns the peak RSS as it stood after the first digest_calls calls,
    or None if the loop stopped before them.  The lru caches grow with every
    call, so a peak taken at the end would grow with the host's speed.
    """
    results: list[Result] = []
    peak_rss_mb = None
    samples = [speed_sample()]
    start = time.perf_counter()
    while True:
        for _ in range(workload.block):
            i = len(results)
            results.append(invoke(cli, calls[i % len(calls)], i, workload.deadline_s))
            if len(results) == workload.digest_calls:
                peak_rss_mb = max_rss_mb()
            if time.perf_counter() - samples[-1][0] >= SAMPLE_EVERY_S:
                samples.append(speed_sample())
        if time.perf_counter() - start >= seconds:
            samples.append(speed_sample())
            assign_scales(results, samples)
            return results, peak_rss_mb


# --------------------------------------------------------------------------- checks


def check(cli, lattice, name: str, seed: int, calls, results: list[Result]) -> None:
    """Verify every completed output; sets Result.checked on a failed check.

    Exit code 2 is the CLI's verification failure, a wrong answer, so its
    output is checked too.
    """
    for r in results:
        if r.status not in ("ok", "exit 2"):
            continue
        call = calls[r.index % len(calls)]
        try:
            payload = json.loads(r.output)
        except ValueError as exc:
            r.checked = f"output is not JSON: {exc}"
            continue
        if call.argv[0] == "lattice-check":
            if not payload["chain_ok"] or payload["mismatches"] or payload["N"] != call.N:
                r.checked = f"lattice-check reports chain_ok={payload['chain_ok']}, {payload['mismatches']}"
            continue
        deltas, gaps = payload["deltas"], payload["distinct_gaps"]
        if len(deltas) != call.N or payload["gap_count"] != len(gaps) or len(gaps) > 3:
            r.checked = f"gaps: {len(deltas)} deltas for N={call.N}, gap_count {payload['gap_count']}"
            continue
        if r.index % CHECK_EVERY == 0:
            n = random.Random(f"check/{name}/{seed}/{r.index}").randint(1, call.N)
            primes = cli.parse_primes(call.primes)
            via_lattice = lattice.delta_via_lattice(cli.parse_alpha(call.alpha, primes), call.N, n)
            if deltas[n - 1] != str(via_lattice):
                r.checked = f"delta_{n} = {deltas[n - 1]} but the lattice path gives {via_lattice}"


def output_digest(results: list[Result]) -> str:
    import hashlib  # here, not at the top: importing it adds ~3 MB to the peak_rss_mb floor

    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.index}\0{r.status}\0".encode())
        h.update(r.output.encode() if r.status != "deadline" else b"")
        h.update(b"\0")
    return h.hexdigest()


def expected_failure(call: workloads.Call, r: Result) -> bool:
    """A 31-digit wide_digits call stopped at its deadline (the unbounded-work
    defect on large integers), or refused with the CLI's usage exit code."""
    return call.long_digits and r.status in ("deadline", "exit 1")


def problems_with(paper_examples, calls, checked: list[Result], digest_results: list[Result]) -> list[str]:
    """Why the run is not correct: a failed output check, any other failed call
    but an expected one, the published examples, or an output digest that
    differs from an earlier run of the same program source on the same inputs
    (recorded in OUT/digests.json)."""
    import hashlib

    problems = sorted({f"output check: {r.checked}" if r.checked else f"call failed: {r.status}"
                       for r in checked
                       if r.failed and not expected_failure(calls[r.index % len(calls)], r)})
    if not paper_examples.reproduce_all().all_pass:
        problems.append("paper_examples.reproduce_all() reports a mismatch")
    key = hashlib.sha256()
    for path in sorted((SRC / "adelic_gaps").glob("*.py")):
        key.update(path.name.encode() + b"\0" + path.read_bytes())
    for r in digest_results:
        key.update("\0".join(calls[r.index % len(calls)].argv).encode() + b"\n")
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    digest = output_digest(digest_results)
    if known.setdefault(key.hexdigest(), digest) != digest:
        problems.append(f"output_sha256 {digest} differs from {known[key.hexdigest()]} on the same inputs")
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


def _digest_set(cli, workload, calls, results):
    """Results of the first digest_calls calls, running any the timed loop did not reach."""
    have = results[:workload.digest_calls]
    missing = run_list(cli, calls, range(len(have), workload.digest_calls), workload.deadline_s)
    return have + missing


# --------------------------------------------------------------------------- runs


def run_end_to_end(cli, lattice, paper_examples, name, seed, seconds, calls, setup_s, setup_wall_s):
    workload = workloads.WORKLOADS[name]
    results, peak_rss_mb = timed_loop(cli, workload, calls, seconds)
    digest_results = _digest_set(cli, workload, calls, results)
    if peak_rss_mb is None:  # _digest_set has just made the first digest_calls calls
        peak_rss_mb = max_rss_mb()
    check(cli, lattice, name, seed, calls, results)
    extra = digest_results[len(results):]
    check(cli, lattice, name, seed, calls, extra)
    digest = output_digest(digest_results)
    problems = problems_with(paper_examples, calls, results + extra, digest_results)

    done = [r for r in results if not r.failed]
    failed = len(results) - len(done)
    points = sum(calls[r.index % len(calls)].N for r in done)

    def timings(scaled: bool):
        # a call stopped at its deadline lasts as long as the benchmark's wall-clock
        # timer, whatever the host's speed, so it is not converted
        latencies = [r.elapsed * (r.scale if scaled and r.status != "deadline" else 1) * 1000
                     for r in results]
        # the rates count completed calls over their own time: a failed call,
        # which success_ratio counts, would otherwise mostly add its deadline
        busy_s = sum(ms for ms, r in zip(latencies, results) if not r.failed) / 1000
        return {
            "setup_s": setup_s if scaled else setup_wall_s,
            "invocations_per_s": len(done) / busy_s,
            "orbit_points_per_s": points / busy_s,
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_p90": statistics.quantiles(latencies, n=10)[-1],
        }

    metrics = {**timings(True), "peak_rss_mb": peak_rss_mb, "success_ratio": len(done) / len(results)}
    wall = timings(False)
    print(f"workload {name}  seed {seed}  python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"  {len(results)} calls in {len(results) // workload.block} blocks, "
          f"{failed} failed: fail_ratio {failed / len(results):.6g}")
    print(f"  median speed factor {statistics.median(r.scale for r in results):.4f} "
          f"(times below are reference seconds; wall-clock values in brackets)")
    for status in sorted({r.status for r in results if r.status != "ok"}):
        print(f"  failed call: {status}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  output_sha256 {digest} (first {len(digest_results)} calls)")
    for key, value in metrics.items():
        note = f"  [{wall[key]:.6g}]" if key in wall else ""
        note += f"  (of {len(results)} calls)" if key.startswith("latency") else ""
        print(f"  {key} = {value:.6g} {END_TO_END_UNITS[key]}{note}")
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _layer_table():
    return json.loads((Path(__file__).resolve().parent / "layers.json").read_text())["layers"]


def _clear_caches(adele, arith):
    adele._prime_factors.cache_clear()
    arith.is_prime.cache_clear()


def run_traced(cli, modules, name, seed, calls):
    adele, arith, lattice, paper_examples = modules
    workload = workloads.WORKLOADS[name]
    indices = range(workload.trace_calls)

    _clear_caches(adele, arith)
    t0 = time.perf_counter()
    plain = run_list(cli, calls, indices, workload.deadline_s)
    untraced_s = time.perf_counter() - t0

    _clear_caches(adele, arith)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_list(cli, calls, indices, workload.deadline_s, before_call=tracer.start_call)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    tracer.write(OUT / f"trace-{name}")

    check(cli, lattice, name, seed, calls, plain)
    digest = output_digest(plain)
    problems = problems_with(paper_examples, calls, plain, plain)
    if [(a.status, a.output) for a in plain] != [(b.status, b.output) for b in traced]:
        problems.append("the traced calls' outputs differ from the untraced ones")

    # a function that reads zero calls where the layer table says it should move,
    # or fewer traced calls than cache lookups, means a binding the patch missed
    wiring = []
    for fn, row in stats.items():
        if "lookups" in row and row["lookups"] != row["calls"]:
            wiring.append(f"{fn}: {row['calls']} traced calls but {row['lookups']} cache lookups")
    for entry in _layer_table():
        if name in entry["moves_on"]:
            wiring += [f"{fn} made no calls on {name}" for fn in entry["functions"] if stats[fn]["calls"] == 0]

    def ratio(a, b):
        return a / b if b else 0.0

    points = sum(calls[i % len(calls)].N for i in indices)
    metrics = {}
    for fn in ("cli.main", "adele._reduced_distance", "adele._raw_abs", "adele.reduce",
               "adele._prime_factors", "adele.PrimeSet.smallest_outside", "arith.valuation",
               "arith.is_prime", "lattice.F_value", "lattice.min_positive_diagonal_distance"):
        metrics[f"{fn}.calls"] = (stats[fn]["calls"], "count")
        metrics[f"{fn}.self_s"] = (stats[fn]["self_s"], "s")
    for fn in ("torus_gaps.gap_report", "torus_gaps.orbit", "lattice.delta_via_lattice"):
        metrics[f"{fn}.self_s"] = (stats[fn]["self_s"], "s")
    for fn in ("adele.torus_distance", "arith.padic_abs", "lattice.RotationMatrixSpec.v_min"):
        metrics[f"{fn}.calls"] = (stats[fn]["calls"], "count")
    metrics["torus_gaps.distance_evals_per_point"] = (
        ratio(stats["adele._reduced_distance"]["calls"], points), "evals/point")
    for fn in tracing.CACHED:
        metrics[f"{fn}.hit_ratio"] = (ratio(stats[fn]["hits"], stats[fn]["lookups"]), "ratio")
    v_min = stats["lattice.RotationMatrixSpec.v_min"]["calls"]
    metrics["lattice.v_min.hit_ratio"] = (
        1 - ratio(stats["lattice.min_positive_diagonal_distance"]["calls"], v_min) if v_min else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    failed = sum(r.failed for r in plain)
    print(f"workload {name}  seed {seed}  traced run of {len(plain)} calls  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"  untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, {len(tracer.fn)} spans, "
          f"{failed} failed: fail_ratio {failed / len(plain):.6g}")
    print(f"  output_sha256 {digest} (first {len(plain)} calls)")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    if wiring:
        for problem in wiring:
            print(f"traced run failed: {problem}", file=sys.stderr)
        raise SystemExit(1)
    return {
        "correct": not problems,
        "attempted": len(plain),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own child process, so each peak_rss_mb is that workload's own."""
    import subprocess  # only here: the single-workload process stays lean for peak_rss_mb

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "adelic_gaps" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'adelic_gaps'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    cli, calls, setup_s, setup_wall_s = setup(args.workload, args.seed)
    adele = importlib.import_module("adelic_gaps.adele")
    arith = importlib.import_module("adelic_gaps.arith")
    lattice = importlib.import_module("adelic_gaps.lattice")
    paper_examples = importlib.import_module("adelic_gaps.paper_examples")
    if args.trace:
        result = run_traced(cli, (adele, arith, lattice, paper_examples), args.workload, args.seed, calls)
    else:
        result = run_end_to_end(cli, lattice, paper_examples, args.workload, args.seed,
                                args.seconds, calls, setup_s, setup_wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
