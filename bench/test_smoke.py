"""Smoke tests of the benchmark itself, each workload at its smallest size.

Run from the repository root (about a minute on two cores):

    python -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    """BENCHMARK.json and bench/, plus src/ if asked, as a checkout holds them."""
    skip = shutil.ignore_patterns("out", ".work", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return copy_checkout(tmp_path_factory.mktemp("checkout"), with_sources=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_are_declared_with_units(checkout, workload, trace):
    p = bench(checkout, "--workload", workload, "--seed", "0", "--seconds", "1",
              "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
    elif workload == "verify-oracle":
        assert values["network.solve.full.calls"] > 0
    else:
        assert values["network.calls"] == 0


def test_refuses_a_directory_without_sources(tmp_path):
    p = bench(copy_checkout(tmp_path, with_sources=False), "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
              "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""


def test_budget_check_catches_a_changed_digit():
    out = subprocess.run(
        [sys.executable, "-m", "coldamp.cli", "budget", "--freq-min", "1e-4",
         "--freq-max", "1e-2", "--points", "20"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        check=True).stdout
    assert checks.budget_csv(out, 1.3e-5, rows=20, first=1e-4, last=1e-2) is None
    lines = out.splitlines()
    fields = lines[5].split(",")
    fields[5] = f"{float(fields[5]) * (1 + 1e-10):.11e}"
    lines[5] = ",".join(fields)
    assert "identity" in checks.budget_csv("\n".join(lines) + "\n", 1.3e-5, rows=20)
