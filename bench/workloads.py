"""The three benchmark workloads and the inputs each draws from its seed.

An operation is what one timing sample covers: a list of coldamp CLI
argument lists run in order, the check its outputs must pass, and the
work units it completes (for throughput).

- cli-cold: one cold `python -m coldamp.cli` process per operation,
  over a fixed 38-operation cycle in seeded order.  Import and config
  parsing dominate and the oracle never runs.  Two more operations,
  the known-defect probes, run once per run outside the cycle.
- sweep-grid: in-process `cli.main(["sweep", ...])`; one operation is a
  1000-point frequency sweep plus a 1000-point R_a sweep.  Only the
  closed-form layers work.
- verify-oracle: in-process `cli.main(["verify", ...])` at 20 draws of
  10 frequencies.  The network oracle does most of the work.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import checks

Outcome = tuple["int | None", str, str]          # exit code, stdout, stderr

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

# Operation kinds that fail today because of defects listed in the
# roadmap (item 5).  Each runs once per run as a probe, outside the
# timed operations, so that the number of failures does not depend on
# how many operations fit in the run; probe failures are reported
# apart from the timed operations' `failed`.
KNOWN_DEFECTS = {
    "config-frequency-zero": "frequency = 0 Hz escapes as a ZeroDivisionError traceback",
    "optimize-mass-x1e10": "numerical_matching clamps to its bracket and optimize exits 0",
}

_ASSIGN = re.compile(r"^(\s*(\w+)\s*=\s*)(\S+)(\s+\S+\s*)$")


@dataclass
class Op:
    kind: str
    calls: list[list[str]]
    check: Callable[[list[Outcome]], "str | None"]
    units: int = 1


def _values(text: str) -> dict[str, float]:
    found = {}
    for line in text.splitlines():
        m = _ASSIGN.match(line.split("#", 1)[0])
        if m:
            found[m.group(2)] = float(m.group(3))
    return found


def _edit(text: str, key: str, value: str | None = None, unit: str | None = None,
          drop: bool = False) -> str:
    """The config text with one assignment changed or removed."""
    out = []
    for line in text.splitlines():
        m = _ASSIGN.match(line)
        if m and m.group(2) == key:
            if drop:
                continue
            unit_part = f" {unit}" if unit is not None else m.group(4).rstrip()
            line = f"{m.group(1)}{value if value is not None else m.group(3)}{unit_part}"
        out.append(line)
    return "\n".join(out) + "\n"


def _perturb(text: str, rng: random.Random) -> str:
    """Every value scaled by a log-uniform factor within half a decade."""
    for key, value in _values(text).items():
        text = _edit(text, key, repr(value * 10.0 ** rng.uniform(-0.5, 0.5)))
    return text


def _ok(expected_rc: int, then: Callable[[str], "str | None"] | None = None):
    """Check of a single call: exit code and stderr, then stdout."""
    def check(outcomes: list[Outcome]) -> str | None:
        (rc, out, err), = outcomes
        return checks.outcome(rc, err, expected_rc) or (then(out) if then else None)
    return check


def _digest(name: str, then: Callable[[str], "str | None"]):
    def check(out: str) -> str | None:
        if checks.sha256(out) != DIGESTS[name]:
            return f"output differs from the committed {name} digest"
        return then(out)
    return check


class CliCold:
    name = "cli-cold"
    in_process = False
    cycle = 38
    tail_pct = 85           # leaves at least 10 operations beyond it in a 40 s run
    unit = "cold CLI processes"

    def __init__(self, root: Path, work: Path, rng: random.Random):
        shipped_path = root / "src" / "coldamp" / "data" / "microscope.cfg"
        shipped = shipped_path.read_text(encoding="utf-8")
        perturbed = _perturb(shipped, rng)
        files = {
            "perturbed": perturbed,
            "mass-x1e10": _edit(shipped, "mass", repr(_values(shipped)["mass"] * 1e10)),
            "unknown-key": perturbed.replace("[analysis]\n", "[analysis]\ncolour = 1.0 K\n"),
            "wrong-unit": _edit(perturbed, "damping", unit="kg"),
            "missing-key": _edit(perturbed, "stiffness", drop=True),
            "frequency-zero": _edit(perturbed, "frequency", "0"),
            "frequency-nan": _edit(perturbed, "frequency", "nan"),
        }
        paths = {}
        for tag, text in files.items():
            paths[tag] = work / f"{tag}.cfg"
            paths[tag].write_text(text, encoding="utf-8")
        self.config_paths = [shipped_path, paths["perturbed"]]
        sources = {"shipped": ([], shipped_path), "perturbed": (["--config", str(paths["perturbed"])],
                                                               paths["perturbed"])}
        h_m = {"shipped": _values(shipped)["damping"], "perturbed": _values(perturbed)["damping"]}

        ops = []
        for tag, (cfg, path) in sources.items():
            one_row = partial(checks.budget_csv, h_m=h_m[tag], rows=1)
            budget = _digest("budget", one_row) if tag == "shipped" else one_row
            ops += [Op(f"budget-{tag}", [["budget", *cfg]], _ok(0, budget))] * 6
            for _ in range(4):
                lo = 10.0 ** rng.uniform(-5.0, -3.5)
                hi = lo * 10.0 ** rng.uniform(1.0, 2.5)
                argv = ["budget", *cfg, "--freq-min", repr(lo), "--freq-max", repr(hi),
                        "--points", "50"]
                grid = partial(checks.budget_csv, h_m=h_m[tag], rows=50, first=lo, last=hi)
                ops.append(Op(f"budget50-{tag}", [argv], _ok(0, grid)))
            ops += [Op(f"optimize-{tag}", [["optimize", *cfg]], _ok(0, checks.matching_report))] * 3
            dump = partial(_round_trip, path=path)
            if tag == "shipped":
                dump = _digest("dump-config", dump)
            ops += [Op(f"dump-config-{tag}", [["dump-config", *cfg]], _ok(0, dump))] * 4
        for tag in ("unknown-key", "wrong-unit", "missing-key", "frequency-nan"):
            ops.append(Op(f"config-{tag}", [["budget", "--config", str(paths[tag])]],
                          _ok(1, _no_stdout)))
        assert len(ops) == self.cycle
        self.probes = (
            Op("optimize-mass-x1e10", [["optimize", "--config", str(paths["mass-x1e10"])]],
               _ok(0, checks.matching_report)),
            Op("config-frequency-zero", [["budget", "--config", str(paths["frequency-zero"])]],
               _ok(1, _no_stdout)),
        )
        assert {op.kind for op in self.probes} == set(KNOWN_DEFECTS)
        rng.shuffle(ops)
        self._ops = ops

    def warmup(self) -> list[Op]:
        return [op for op in self._ops if op.kind == "dump-config-shipped"][:1]

    def ops(self) -> Iterator[Op]:
        return itertools.cycle(self._ops)


def _no_stdout(out: str) -> str | None:
    return "configuration error wrote to stdout" if out else None


def _round_trip(out: str, path: Path) -> str | None:
    """dump-config output re-parses to the parameters of its source."""
    import coldamp

    try:
        again = coldamp.loads(out)
    except ValueError as exc:
        return f"dump-config output does not re-parse: {exc}"
    source = coldamp.load(str(path))
    if again.params != source.params or again.omega != source.omega:
        return "dump-config output does not reproduce the source parameters"
    return None


class SweepGrid:
    name = "sweep-grid"
    in_process = True
    cycle = 1
    tail_pct = 90
    unit = "budget rows"
    probes = ()
    POINTS = 1000

    def __init__(self, root: Path, work: Path, rng: random.Random):
        shipped_path = root / "src" / "coldamp" / "data" / "microscope.cfg"
        values = _values(shipped_path.read_text(encoding="utf-8"))
        self.config_paths = [shipped_path]
        self._h_m = values["damping"]
        self._frequency = values["frequency"]
        self._csv = (work / "frequency.csv", work / "R_a.csv")
        self._rng = rng

    def _op(self, kind, f_lo, f_hi, r_lo, r_hi, digests=None) -> Op:
        freq_csv, ra_csv = self._csv
        n = str(self.POINTS)
        calls = [
            ["sweep", "--min", repr(f_lo), "--max", repr(f_hi), "--points", n,
             "--out", str(freq_csv)],
            ["sweep", "--axis", "R_a", "--min", repr(r_lo), "--max", repr(r_hi), "--points", n,
             "--out", str(ra_csv)],
        ]

        def check(outcomes: list[Outcome]) -> str | None:
            for rc, _, err in outcomes:
                problem = checks.outcome(rc, err, 0)
                if problem:
                    return problem
            texts = []
            for path in self._csv:
                texts.append(path.read_text(encoding="utf-8"))
                path.unlink()
            if digests is not None:
                for text, name in zip(texts, digests):
                    if checks.sha256(text) != DIGESTS[name]:
                        return f"CSV bytes differ from the committed {name} digest"
            f0 = self._frequency
            return (checks.budget_csv(texts[0], self._h_m, self.POINTS, f_lo, f_hi)
                    or checks.budget_csv(texts[1], self._h_m, self.POINTS, f0, f0))

        return Op(kind, calls, check, units=2 * self.POINTS)

    def warmup(self) -> list[Op]:
        # The README's example grids on the shipped config: their CSV bytes
        # are the byte-identical guard, checked on every seed.
        return [self._op("sweep-reference", 1e-4, 1e-2, 1e4, 1e6,
                         digests=("sweep-frequency", "sweep-R_a"))]

    def ops(self) -> Iterator[Op]:
        # Fresh endpoints for every operation, inside the model's valid band
        # (carrier-to-signal ratio far above 1e3), so no two calls repeat.
        while True:
            f_lo = 10.0 ** self._rng.uniform(-5.5, -4.0)
            f_hi = f_lo * 10.0 ** self._rng.uniform(1.5, 3.0)
            r_lo = 10.0 ** self._rng.uniform(3.0, 4.5)
            r_hi = r_lo * 10.0 ** self._rng.uniform(1.0, 2.5)
            yield self._op("sweep", f_lo, f_hi, r_lo, r_hi)


class VerifyOracle:
    name = "verify-oracle"
    in_process = True
    cycle = 1
    tail_pct = 90
    unit = "oracle points"
    probes = ()
    DRAWS = 20
    FREQUENCIES = 10      # verify's default frequencies per draw

    def __init__(self, root: Path, work: Path, rng: random.Random):
        self.config_paths = [root / "src" / "coldamp" / "data" / "microscope.cfg"]
        self._rng = rng

    def _op(self) -> Op:
        argv = ["verify", "--seed", str(self._rng.randrange(2**31)), "--draws", str(self.DRAWS)]
        return Op("verify", [argv], _ok(0, checks.verify_report),
                  units=self.DRAWS * self.FREQUENCIES)

    def warmup(self) -> list[Op]:
        return [self._op()]

    def ops(self) -> Iterator[Op]:
        while True:
            yield self._op()


WORKLOADS = {w.name: w for w in (CliCold, SweepGrid, VerifyOracle)}
