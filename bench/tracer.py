"""In-memory spans around coldamp's public functions, recorded from outside.

install() replaces every binding of each traced function inside the
loaded coldamp modules (including from-import aliases such as
budget.sensor_noise_spectrum or verify.free_lambda) with a wrapper that
times each call, and raises if a traced function no longer exists, so a
stale benchmark fails instead of reporting zeros.  uninstall() puts the
originals back.

As each call returns, its duration and self time (duration minus the
time its child calls cover) go into running totals per function, and
its duration into a bounded sample for the median, so the whole run
counts and memory stays bounded.  The first MAX_SPANS spans (name,
start, end, parent span, operation id, whether the call raised) are also
kept for the spans file.  Nothing is written while operations are
timed.  Tracing assumes one thread, which holds while COLDAMP_THREADS is
unset.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import random
import statistics
import sys
import time
from array import array

# (module, attribute) of each traced function; "Class.method" for methods.
TARGETS = (
    ("cli", "main"),
    ("config", "loads"),
    ("params", "InstrumentParams.with_"),
    ("noise", "effective_temperature"),
    ("sensor", "free_mass_coefficients"),
    ("sensor", "estimator_coefficients"),
    ("sensor", "sensor_noise_spectrum"),
    ("servo", "cold_damped_estimator"),
    ("servo", "gain_for_effective_impedance"),
    ("budget", "budget_point"),
    ("budget", "sweep"),
    ("budget", "numerical_matching"),
    ("network", "build_sensor_network"),
    ("network", "solve"),
    ("verify", "oracle_agreement"),
    ("verify", "loop_estimator_equality"),
    ("verify", "decomposition_consistency"),
    ("verify", "finite_gain_exponent"),
)

MAX_SPANS = 200_000          # raw spans kept for the spans file
MAX_DURATIONS = 50_000       # call durations kept per function for its median


def _solve_name(args, kwargs) -> str:
    scattering = kwargs.get("scattering", args[1] if len(args) > 1 else True)
    return "network.solve.full" if scattering else "network.solve.rows"


def _lookup(module_name: str, attr: str):
    """(owner, leaf, function) of one target; raises if it is gone."""
    owner_name, _, leaf = attr.rpartition(".")
    try:
        module = importlib.import_module(f"coldamp.{module_name}")
        owner = getattr(module, owner_name) if owner_name else module
        return owner, leaf, vars(owner)[leaf]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"traced function coldamp.{module_name}.{attr} is gone; "
                          "update TARGETS in bench/tracer.py") from exc


class _Stats:
    """Running totals of one traced function."""

    __slots__ = ("calls", "self_s", "total_s", "errors", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.durations = array("d")

    def keep(self, duration: float, rng: random.Random) -> None:
        """Reservoir sample of durations; call after counting the call."""
        if len(self.durations) < MAX_DURATIONS:
            self.durations.append(duration)
        else:
            j = rng.randrange(self.calls)
            if j < MAX_DURATIONS:
                self.durations[j] = duration


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: list[_Stats] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.error = array("b")
        self._stack: list[list] = []    # open calls: [raw span index or -1, child seconds]
        self._rng = random.Random(0)
        self.op_id = 0
        self.solves = 0
        self.relaxed = 0
        self.warnings = 0
        self.oracle_dev: dict[int, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._ill = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(_Stats())
        return self._ids[name]

    def _wrap(self, name, fn):
        fixed = None if name == "network.solve" else self._id(name)
        on_solve = name == "network.solve"
        on_oracle = name == "verify.oracle_agreement"
        # Locals, because this runs on every call of a traced function.
        stack, stats, perf = self._stack, self.stats, time.perf_counter
        name_id, start, end, parent_of, op, error = (
            self.name_id, self.start, self.end, self.parent, self.op, self.error)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(_solve_name(args, kwargs))
            parent = stack[-1] if stack else None
            i = len(start)
            if i < MAX_SPANS:
                name_id.append(nid)
                parent_of.append(parent[0] if parent is not None else -1)
                op.append(self.op_id)
                start.append(0.0)
                end.append(0.0)
                error.append(1)
            else:
                i = -1
            frame = [i, 0.0]            # raw span index, seconds in child calls
            stack.append(frame)
            err = 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                err = 0
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                st = stats[nid]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                st.errors += err
                if len(st.durations) < MAX_DURATIONS:
                    st.durations.append(dur)
                else:
                    st.keep(dur, self._rng)
                if i >= 0:
                    start[i] = t0
                    end[i] = t1
                    error[i] = err
            if on_solve:
                self.solves += 1
                self.relaxed += result.condition > self._ill
            elif on_oracle:
                dev = max(result)
                self.oracle_dev[self.op_id] = max(self.oracle_dev.get(self.op_id, 0.0), dev)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each target in the loaded coldamp modules."""
        found = [(module_name, attr, *_lookup(module_name, attr)) for module_name, attr in TARGETS]
        self._ill = sys.modules["coldamp.verify"].ILL_CONDITIONED
        self._id("network.solve.full")
        self._id("network.solve.rows")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coldamp" or n.startswith("coldamp."))]
        for module_name, attr, owner, leaf, original in found:
            wrapper = self._wrap(f"{module_name}.{leaf}", original)
            for target in [owner] if "." in attr else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._saved):
            setattr(target, key, value)
        self._saved.clear()

    def merge(self, dump: dict, op_id: int) -> None:
        """Add what a traced child process wrote with dump_json."""
        ids = [self._id(n) for n in dump["names"]]
        for nid, (calls, self_s, total_s, errors, durations) in zip(ids, dump["stats"]):
            st = self.stats[nid]
            st.self_s += self_s
            st.total_s += total_s
            st.errors += errors
            for d in durations:
                st.calls += 1
                st.keep(d, self._rng)
            st.calls += calls - len(durations)
        base = len(self.start)
        for nid, s, e, p, err in dump["spans"][:max(0, MAX_SPANS - base)]:
            self.name_id.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(op_id)
            self.error.append(err)
        self.solves += dump["solves"]
        self.relaxed += dump["relaxed"]
        self.warnings += dump["warnings"]
        for dev in dump["oracle_dev"]:
            self.oracle_dev[op_id] = max(self.oracle_dev.get(op_id, 0.0), dev)

    def dump_json(self, path) -> None:
        spans = [[self.name_id[i], self.start[i], self.end[i], self.parent[i], self.error[i]]
                 for i in range(len(self.start))]
        stats = [[st.calls, st.self_s, st.total_s, st.errors, list(st.durations)]
                 for st in self.stats]
        payload = {
            "names": self.names, "stats": stats, "spans": spans, "solves": self.solves,
            "relaxed": self.relaxed, "warnings": self.warnings,
            "oracle_dev": list(self.oracle_dev.values()),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def write_spans(self, path) -> None:
        """The kept spans as gzipped CSV: op, span, parent, name, start_s, end_s, error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s,error\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},{self.error[i]}\n")

    def calls(self) -> int:
        return sum(st.calls for st in self.stats)

    def table(self, ops: int) -> dict[str, dict[str, float]]:
        """Per traced function: calls, self and total seconds per operation,
        median call in microseconds (0 if never called), and calls that
        raised (per operation)."""
        return {name: {
            "calls": st.calls / ops,
            "self_s": st.self_s / ops,
            "total_s": st.total_s / ops,
            "p50_us": statistics.median(st.durations) * 1e6 if st.durations else 0.0,
            "errors": st.errors / ops,
        } for name, st in zip(self.names, self.stats)}
