"""coldamp benchmark: one workload, one seed, one result line.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {cli-cold,sweep-grid,verify-oracle}
                         --seed N --seconds S --trace {0,1}

The program under test is the checkout's own src/coldamp, run through
the paths its users take: cold `python -m coldamp.cli` processes, or
`coldamp.cli.main` called in-process.  Every operation's output is
checked.  With --trace 0 the run times operations untraced and reports
the end-to-end metrics, scaled to a reference host speed with
calibrate(); with --trace 1 every operation runs twice, once
with the span tracer installed and once without, and the run reports
the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object; a fuller result file (with environment,
sample counts and failures) goes to bench/out/, and the spans of a
traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_EVERY_S = 2.0          # one fresh-interpreter setup sample this often
# calibrate() takes this long on the baseline host in its steady (slow)
# state; end-to-end times are scaled to that host speed.
REFERENCE_KERNEL_S = 0.005
CHILD_TIMEOUT_S = 120

# A fresh interpreter imports coldamp and parses the workload's configs;
# it prints the import time and the import-plus-parse time.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import coldamp
t1 = time.perf_counter()
for path in sys.argv[1:]:
    coldamp.load(path)
print(t1 - t0, time.perf_counter() - t0)
"""

# Per-layer metric name -> (traced function, field of its table row).
_LAYER_FIELDS = {
    "config.loads.p50_us": ("config.loads", "p50_us"),
    "config.loads.calls": ("config.loads", "calls"),
    "config.errors": ("config.loads", "errors"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "params.with_.calls": ("params.with_", "calls"),
    "params.with_.p50_us": ("params.with_", "p50_us"),
    "noise.effective_temperature.calls": ("noise.effective_temperature", "calls"),
    "noise.effective_temperature.p50_us": ("noise.effective_temperature", "p50_us"),
    "sensor.estimator_coefficients.calls": ("sensor.estimator_coefficients", "calls"),
    "sensor.estimator_coefficients.p50_us": ("sensor.estimator_coefficients", "p50_us"),
    "sensor.estimator_coefficients.self_s": ("sensor.estimator_coefficients", "self_s"),
    "sensor.sensor_noise_spectrum.p50_us": ("sensor.sensor_noise_spectrum", "p50_us"),
    "sensor.sensor_noise_spectrum.self_s": ("sensor.sensor_noise_spectrum", "self_s"),
    "sensor.free_mass_coefficients.calls": ("sensor.free_mass_coefficients", "calls"),
    "servo.cold_damped_estimator.calls": ("servo.cold_damped_estimator", "calls"),
    "servo.cold_damped_estimator.self_s": ("servo.cold_damped_estimator", "self_s"),
    "servo.gain_for_effective_impedance.calls": ("servo.gain_for_effective_impedance", "calls"),
    "budget.budget_point.calls": ("budget.budget_point", "calls"),
    "budget.budget_point.p50_us": ("budget.budget_point", "p50_us"),
    "budget.budget_point.self_s": ("budget.budget_point", "self_s"),
    "budget.sweep.self_s": ("budget.sweep", "self_s"),
    "budget.numerical_matching.p50_us": ("budget.numerical_matching", "p50_us"),
    "network.build_sensor_network.calls": ("network.build_sensor_network", "calls"),
    "network.build_sensor_network.p50_us": ("network.build_sensor_network", "p50_us"),
    "network.build_sensor_network.self_s": ("network.build_sensor_network", "self_s"),
    "network.solve.full.calls": ("network.solve.full", "calls"),
    "network.solve.full.p50_us": ("network.solve.full", "p50_us"),
    "network.solve.full.self_s": ("network.solve.full", "self_s"),
    "network.solve.rows.calls": ("network.solve.rows", "calls"),
    "network.solve.rows.p50_us": ("network.solve.rows", "p50_us"),
    "network.solve.rows.self_s": ("network.solve.rows", "self_s"),
    "verify.oracle_agreement.self_s": ("verify.oracle_agreement", "self_s"),
    "verify.loop_estimator_equality_s": ("verify.loop_estimator_equality", "total_s"),
    "verify.decomposition_consistency_s": ("verify.decomposition_consistency", "total_s"),
    "verify.finite_gain_exponent_s": ("verify.finite_gain_exponent", "total_s"),
}


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that does not touch coldamp.

    Pure-Python arithmetic, dict and string work, and small numpy solves,
    like the work coldamp does.  Timed next to every operation, it tells
    how fast the host runs at that moment.
    """
    import numpy as np

    t = time.perf_counter()
    acc = 0.0
    for i in range(1, 10001):
        acc += math.sqrt(i) / (1.0 + math.log(i))
    table = {f"k{i}": float(i) for i in range(1000)}
    acc += sum(float(repr(v)) for v in table.values())
    a = np.arange(64.0).reshape(8, 8) + 8.0 * np.eye(8)
    for _ in range(100):
        acc += float(np.linalg.solve(a, a[:, 0])[0])
    return time.perf_counter() - t


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COLDAMP_THREADS", None)
    return env


def _git_revision() -> str:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "coldamp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs operations, checks them and keeps the counts."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.env = _child_env()
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def _cold(self, argv, tracer, op_id):
        if tracer is None:
            cmd = [sys.executable, "-m", "coldamp.cli", *argv]
        else:
            spans = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
        t = time.perf_counter()
        try:
            p = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
            outcome = (p.returncode, p.stdout, p.stderr)
        except subprocess.TimeoutExpired:
            outcome = (None, "", f"no exit within {CHILD_TIMEOUT_S} s")
        elapsed = time.perf_counter() - t
        if tracer is not None and spans.is_file():
            tracer.merge(json.loads(spans.read_text()), op_id)
            spans.unlink()
        return elapsed, outcome

    def _inline(self, argv, tracer, op_id):
        import coldamp.cli

        out, err = io.StringIO(), io.StringIO()
        escaped = None
        caught: list = []
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                caught = stack.enter_context(warnings.catch_warnings(record=True))
                warnings.simplefilter("always")
                tracer.op_id = op_id
                tracer.install()
                stack.callback(tracer.uninstall)
            t = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = coldamp.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # an escaping exception is a failure to count
                    rc, escaped = 1, exc
            elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.warnings += len(caught)
        text = err.getvalue()
        if escaped is not None:
            text += "".join(traceback.format_exception(escaped))
        return elapsed, (rc, out.getvalue(), text)

    def run(self, op, tracer=None, op_id=0) -> float:
        """Run and check one operation; returns its wall time in seconds."""
        call = self._inline if self.wl.in_process else self._cold
        total, outcomes = 0.0, []
        for argv in op.calls:
            elapsed, outcome = call(argv, tracer, op_id)
            total += elapsed
            outcomes.append(outcome)
        self.attempted += 1
        try:
            problem = op.check(outcomes)
        except (OSError, ValueError) as exc:
            problem = f"output could not be checked: {exc}"
        if problem:
            self.failures.setdefault(op.kind, []).append(problem)
        return total

    def setup_sample(self) -> tuple[float, float, float]:
        """(import, import + parse, calibration) seconds of one fresh interpreter.

        The interpreter and the two calibrations either side of it run
        on one core, so that the calibration sees that core's speed.
        """
        cmd = [sys.executable, "-c", _SETUP_CODE, *map(str, self.wl.config_paths)]
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            before = calibrate()
            p = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S, check=True)
            after = calibrate()
        finally:
            os.sched_setaffinity(0, cpus)
        imported, parsed = (float(x) for x in p.stdout.split())
        return imported, parsed, (before + after) / 2.0


def measure(args, work: Path, spans_path: Path) -> dict:
    from workloads import KNOWN_DEFECTS, WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, work, random.Random(args.seed))
    if not wl.in_process:
        # One core for the benchmark and its children, so that the
        # calibration kernel sees the speed of the core the cold
        # processes run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(wl, work)
    runner.setup_sample()      # unreported: writes the byte-code cache
    for op in wl.warmup():
        runner.run(op)
    prober = Runner(wl, work)  # the known-defect probes, once each
    for op in wl.probes:
        prober.run(op)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()       # raises here if a traced function is gone
        tracer.uninstall()
    samples: list[float] = []
    traced_samples: list[float] = []
    # Fresh-interpreter setups, spread through the run.
    setup: list[tuple[float, float, float]] = []
    kernels = [calibrate()]
    units = 0
    started = time.perf_counter()
    deadline = started + args.seconds
    next_setup = started
    for op in wl.ops():
        n = len(samples)
        now = time.perf_counter()
        # A traced run ends on a whole cycle, so its per-operation counts are exact.
        if n and now >= deadline and (tracer is None or n % wl.cycle == 0):
            break
        if now >= next_setup:
            next_setup = now + SETUP_EVERY_S
            setup.append(runner.setup_sample())
        # The traced twin of each operation runs first on even operations
        # and second on odd ones, so warm caches favour neither side.
        if tracer is not None and n % 2 == 0:
            traced_samples.append(runner.run(op, tracer, op_id=n))
        samples.append(runner.run(op))
        if tracer is not None and n % 2 == 1:
            traced_samples.append(runner.run(op, tracer, op_id=n))
        kernels.append(calibrate())
        units += op.units
    wall = time.perf_counter() - started
    # Each operation at reference host speed: its wall time times
    # REFERENCE_KERNEL_S over the mean of the calibrations either side.
    scaled = [t * 2.0 * REFERENCE_KERNEL_S / (k0 + k1)
              for t, k0, k1 in zip(samples, kernels, kernels[1:])]

    failed = sum(len(v) for v in runner.failures.values())
    defects = sum(len(v) for v in prober.failures.values())
    rss_who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    tail_beyond = sum(1 for s in scaled if s > percentile(scaled, wl.tail_pct))
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "measured_wall_s": wall,
        "samples": {
            "operations": len(samples),
            "setup": len(setup),
            "tail_percentile": wl.tail_pct,
            "beyond_tail": tail_beyond,
            "work_unit": wl.unit,
            "work_units": units,
        },
        "op_seconds": samples,
        "calibrate_seconds": kernels,
        "setup_seconds": setup,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": {kind: {"count": len(v), "first": v[0]}
                     for kind, v in sorted(runner.failures.items())},
        "probes": {"attempted": prober.attempted, "failed": defects},
        # Every operation, the known-defect probes included.
        "failed_ratio": (failed + defects) / (runner.attempted + prober.attempted),
        "known_defects": {kind: {"count": len(v), "first": v[0],
                                 "known_defect": KNOWN_DEFECTS[kind]}
                          for kind, v in sorted(prober.failures.items())},
        "correct": not runner.failures,
    }
    import_s = statistics.median(s[0] for s in setup)
    if tracer is None:
        result["wall_clock"] = {
            "setup_s": statistics.median(s[1] for s in setup),
            "op_p50_s": percentile(samples, 50),
            "op_tail_s": percentile(samples, wl.tail_pct),
            "throughput_per_s": units / sum(samples),
            "calibrate_p50_s": percentile(kernels, 50),
        }
        result["metrics"] = _with_units({
            "setup_s": statistics.median(s[1] * REFERENCE_KERNEL_S / s[2] for s in setup),
            "op_p50_s": percentile(scaled, 50),
            "op_tail_s": percentile(scaled, wl.tail_pct),
            "throughput_per_s": units / sum(scaled),
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
        })
    else:
        result.update(_traced(tracer, traced_samples, samples, import_s, result))
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path.name
    return result


def _traced(tracer, traced, untraced, import_s, result) -> dict:
    ops = len(traced)
    table = tracer.table(ops)
    metrics = {name: table[span][field] for name, (span, field) in _LAYER_FIELDS.items()}
    solve_errors = sum(table[f"network.solve.{k}"]["errors"] for k in ("full", "rows"))
    network_calls = sum(row["calls"] for name, row in table.items()
                        if name.startswith("network."))
    overhead = percentile(traced, 50) - percentile(untraced, 50)
    metrics.update({
        "network.calls": network_calls,
        "network.solve.errors": solve_errors,
        "network.solve.relaxed_ratio": tracer.relaxed / tracer.solves if tracer.solves else 0.0,
        "verify.worst_oracle_dev": tracer.oracle_dev.get(0, 0.0),
        "warnings.count": tracer.warnings / ops,
        "import.coldamp_s": import_s,
        "trace.overhead_s": overhead,
        "failed_ratio": result["failed_ratio"],
        "known_defects": result["probes"]["failed"],
    })
    return {
        "metrics": _with_units(metrics),
        "traced_operations": ops,
        "traced_calls": tracer.calls(),
        "spans_in_file": len(tracer.start),
        "tracing_overhead": {
            "traced_p50_s": percentile(traced, 50),
            "untraced_p50_s": percentile(untraced, 50),
            "overhead_s": overhead,
        },
        "layers": table,
    }


def _with_units(values: dict[str, float]) -> dict[str, dict]:
    """Attach the unit BENCHMARK.json declares for each metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coldamp" / "__init__.py").is_file():
        print(f"bench: no coldamp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("COLDAMP_THREADS", None)
    sys.path.insert(0, str(SRC))
    import coldamp

    if Path(coldamp.__file__).resolve().parent != SRC / "coldamp":
        print(f"bench: imported coldamp from {coldamp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work, out_dir / f"{stem}_spans.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for kind, found in result["known_defects"].items():
        print(f"bench: known defect {kind} (roadmap item 5): {found['first']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
