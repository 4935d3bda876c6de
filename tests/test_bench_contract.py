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
        verify.oracle_agreement(reference_params, reference_omega, draws=1, seed=0)
    finally:
        recorder.uninstall()
    assert recorder.solves == 1           # one stacked solve per block of up to 64 points
    assert recorder.relaxed == 0
    assert math.isnan(res.condition)
