"""The names bench/tracer.py reads from coldamp still exist.

The tracer is loaded in place from the benchmark directory, so a change
under src/ that would break `bench/run.py --trace 1` fails here in a
fraction of a second.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import coldamp.verify as verify
from coldamp.network import build_sensor_network, solve

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracer):
    for module_name, attr in tracer.TARGETS:
        assert callable(tracer._lookup(module_name, attr)[2])


def test_solve_diagnostics_the_tracer_reads(tracer, reference_params, reference_omega):
    assert isinstance(verify.ILL_CONDITIONED, float)
    res = solve(build_sensor_network(reference_params, None, reference_omega))
    assert isinstance(res.condition, float)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        verify._oracle_rows(*verify._draws(reference_params, reference_omega, 0, 1))
    finally:
        recorder.uninstall()
    assert recorder.solves == 1           # one stacked solve per block of up to 256 points
    assert recorder.relaxed == 0
    assert math.isnan(res.condition)


def test_run_checks_calls_each_traced_check_once(tracer, reference_params, reference_omega):
    """One run_checks records one call of each grid check and of the exponent fit,
    through the module bindings the tracer wraps, and one finite oracle deviation."""
    recorder = tracer.Tracer()
    recorder.install()
    try:
        verify.run_checks(reference_params, reference_omega, draws=1)
    finally:
        recorder.uninstall()
    for name in ("oracle_agreement", "loop_estimator_equality", "decomposition_consistency",
                 "finite_gain_exponent"):
        assert recorder.stats[recorder.names.index(f"verify.{name}")].calls == 1, name
    (dev,) = recorder.oracle_dev.values()
    assert math.isfinite(dev)
