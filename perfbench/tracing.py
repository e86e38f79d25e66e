"""Spans around the program's layer-boundary functions, recorded from outside the program.

`Tracer.install` replaces each traced function at every module that binds
it (the package modules import `reduce`, `gap_report`, `padic_abs`, ... by
name, so patching only the defining module would miss those calls) and the
two traced methods on their classes.  Each span records its function, start,
end, parent span and the id of the CLI call it ran under; spans live in flat
arrays in memory and are written out once, by `write`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

FUNCTIONS = (
    "cli.main",
    "torus_gaps.gap_report",
    "torus_gaps.orbit",
    "adele._reduced_distance",
    "adele._raw_abs",
    "adele.reduce",
    "adele.torus_distance",
    "adele._prime_factors",
    "arith.valuation",
    "arith.padic_abs",
    "arith.is_prime",
    "lattice.delta_via_lattice",
    "lattice.F_value",
    "lattice.min_positive_diagonal_distance",
)
METHODS = ("adele.PrimeSet.smallest_outside", "lattice.RotationMatrixSpec.v_min")
CACHED = ("adele._prime_factors", "arith.is_prime")  # functools.lru_cache wrappers
PACKAGE = "adelic_gaps"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS + METHODS)
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call = array("l")
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cached = {}

    def _wrap(self, index: int, fn):
        fns, starts, ends, parents, calls, stack = (
            self.fn, self.start, self.end, self.parent, self.call, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(fns)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for index, qualname in enumerate(self.names):
            parts = qualname.split(".")
            if qualname in METHODS:
                cls = getattr(modules[parts[0]], parts[1])
                original = cls.__dict__[parts[2]]
                self._restore.append((cls, parts[2], original))
                setattr(cls, parts[2], self._wrap(index, original))
                continue
            original = getattr(modules[parts[0]], parts[1])
            if qualname in CACHED:
                self._cached[qualname] = (original, original.cache_info())
            wrapper = self._wrap(index, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def start_call(self, call_id: int) -> None:
        """Spans from here on belong to CLI call `call_id`."""
        # a deadline can unwind a call between a wrapper's push and its try
        self._stack.clear()
        self.call_id = call_id

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total self time, and lru-cache hits/lookups."""
        n = len(self.fn)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        rows = [out[name] for name in self.names]
        for sid, index in enumerate(self.fn):
            row = rows[index]
            row["calls"] += 1
            row["self_s"] += ends[sid] - starts[sid] - child[sid]
        for name, (original, before) in self._cached.items():
            after = original.cache_info()
            out[name]["hits"] = after.hits - before.hits
            out[name]["lookups"] = after.hits + after.misses - before.hits - before.misses
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays in `<path>.spans`, described by `<path>.json`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("fn", "start", "end", "parent", "call")
        with open(path.with_suffix(".spans"), "wb") as out:
            for field in fields:
                getattr(self, field).tofile(out)
        header = {
            "spans": len(self.fn),
            "byteorder": sys.byteorder,
            "functions": self.names,
            "arrays": [{"field": f, "typecode": getattr(self, f).typecode,
                        "itemsize": getattr(self, f).itemsize} for f in fields],
            "clock": "time.perf_counter seconds; parent -1 is a root span; call is the CLI call index",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
