"""Command-line interface: exit codes, CSV contract, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

import coldamp.verify as verify
from coldamp import cli
from coldamp.noise import LINE_LABELS
from coldamp.sensor import estimator_coefficients

# SHA-256 of the CLI output on the shipped config, kept with the benchmark.
DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_budget_default_point(capsys):
    code, out, err = run(["budget"], capsys)
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "frequency_hz"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == len(cli._CSV_COLUMNS)
    assert float(fields[0]) == pytest.approx(5.0e-4, rel=1e-11, abs=0.0)
    assert float(fields[5]) == pytest.approx(1.1e-25, rel=0.03, abs=0.0)
    assert "force noise" in err


def test_csv_fields_round_trip(capsys):
    """12 significant digits reparse to within one part in 1e11."""
    code, out, _ = run(["budget", "--freq-min", "1e-4", "--freq-max", "1e-2",
                        "--points", "5"], capsys)
    assert code == cli.EXIT_OK
    header, *rows = out.strip().splitlines()
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        for text in fields[:11]:
            value = float(text)
            assert f"{value:.11e}" == text


def test_budget_deterministic(capsys):
    _, out1, _ = run(["budget", "--freq-min", "1e-4", "--freq-max", "1e-2",
                      "--points", "7"], capsys)
    _, out2, _ = run(["budget", "--freq-min", "1e-4", "--freq-max", "1e-2",
                      "--points", "7"], capsys)
    assert out1 == out2


def test_budget_single_point_grid(capsys):
    code, out, _ = run(["budget", "--freq-min", "2e-4", "--freq-max", "2e-4",
                        "--points", "1"], capsys)
    assert code == cli.EXIT_OK
    assert len(out.strip().splitlines()) == 2


def test_budget_bad_grid(capsys):
    code, _, err = run(["budget", "--freq-min", "1e-2", "--freq-max", "1e-4",
                        "--points", "5"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in err


def test_missing_config_file(capsys):
    code, _, err = run(["budget", "--config", "/no/such/file.cfg"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in err


def test_budget_out_file(tmp_path, capsys):
    path = tmp_path / "budget.csv"
    code, out, _ = run(["budget", "--out", str(path)], capsys)
    assert code == cli.EXIT_OK
    assert out == ""
    assert path.read_text().startswith("frequency_hz,")


def test_sweep_axis(capsys):
    code, out, err = run(["sweep", "--axis", "R_a", "--min", "1e4",
                          "--max", "1e6", "--points", "5"], capsys)
    assert code == cli.EXIT_OK
    assert len(out.strip().splitlines()) == 6
    assert "5 points" in err


@pytest.mark.parametrize("axis", ["z_f", "r_m", "delta", "not_a_field"])
def test_sweep_rejects_non_field_axis(axis, capsys):
    code, out, err = run(["sweep", "--axis", axis, "--min", "1", "--max", "2",
                          "--points", "2"], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("configuration error: unknown sweep axis")


def _shipped_with(tmp_path, old, new):
    text = cli._default_config_text()
    assert old in text
    path = tmp_path / "edited.cfg"
    path.write_text(text.replace(old, new))
    return str(path)


def test_zero_frequency_config_is_a_config_error(tmp_path, capsys):
    path = _shipped_with(tmp_path, "frequency = 5.0e-4 Hz", "frequency = 0 Hz")
    code, out, err = run(["budget", "--config", path], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"configuration error: {path}: line ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_zero_coupling_is_a_config_error(command, tmp_path, capsys):
    path = _shipped_with(tmp_path, "coupling = 1.0e-7 C/m", "coupling = 0 C/m")
    code, _, err = run([command, "--config", path], capsys)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("configuration error: ")
    assert "kappa_t is 0" in err
    assert len(err.strip().splitlines()) == 1


def test_optimize_heavy_mass(tmp_path, capsys):
    """At 1e10 times the shipped mass the optimum ratio is ~1.6e3."""
    path = _shipped_with(tmp_path, "mass = 0.27 kg", "mass = 2.7e9 kg")
    code, out, _ = run(["optimize", "--config", path], capsys)
    assert code == cli.EXIT_OK
    residual_line = [l for l in out.splitlines() if "cross-check" in l][0]
    assert float(residual_line.split(":")[1].split()[0]) < 1e-6


def test_matching_failure_exits_numerical(monkeypatch, capsys):
    import coldamp.matching as matching

    def edge(p, omega):
        raise matching.MatchingError("minimum on the bracket edge", omega=omega)

    monkeypatch.setattr(matching, "numerical_matching", edge)
    code, _, err = run(["optimize"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert err == "numerical failure: minimum on the bracket edge\n"


@pytest.mark.parametrize("name, argv", [
    ("budget", ["budget"]),
    ("dump-config", ["dump-config"]),
    ("sweep-frequency", ["sweep", "--min", "1e-4", "--max", "1e-2", "--points", "1000"]),
    ("sweep-R_a", ["sweep", "--axis", "R_a", "--min", "1e4", "--max", "1e6",
                   "--points", "1000"]),
])
def test_shipped_config_output_is_byte_identical(name, argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_optimize_reports_small_residual(capsys):
    code, out, _ = run(["optimize"], capsys)
    assert code == cli.EXIT_OK
    residual_line = [l for l in out.splitlines() if "cross-check" in l][0]
    assert float(residual_line.split(":")[1].split()[0]) < 1e-6


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--draws", "5"], capsys)
    assert code == cli.EXIT_OK
    assert "verification passed" in out
    assert out.count("[ok  ]") == 9
    assert "[FAIL]" not in out


def test_verify_deterministic(capsys):
    _, out1, _ = run(["verify", "--draws", "5", "--seed", "7"], capsys)
    _, out2, _ = run(["verify", "--draws", "5", "--seed", "7"], capsys)
    assert out1 == out2


def test_verify_detects_corrupted_closed_form(capsys, monkeypatch):
    """Negative control: a sign error in one coefficient must be caught."""

    def corrupted(p, omega):
        mu = estimator_coefficients(p, omega)
        mu[..., LINE_LABELS.index("l2")] *= -1.0
        return mu

    monkeypatch.setattr(verify, "estimator_mu", corrupted)
    code, out, err = run(["verify", "--draws", "5"], capsys)
    assert code == cli.EXIT_VERIFY
    assert "[FAIL]" in out
    assert "verification FAILED" in err


def test_dump_config_round_trips(capsys):
    code, out, _ = run(["dump-config"], capsys)
    assert code == cli.EXIT_OK
    from coldamp.config import loads

    cfg = loads(out)
    assert cfg.params.M == 0.27
    assert cfg.frequency == pytest.approx(5.0e-4, rel=1e-15, abs=0.0)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("coldamp ")


@pytest.mark.parametrize("argv, message", [
    (["budget", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "--draws", "abc"], "argument --draws: invalid int value: 'abc'"),
    (["verify", "--tol", "1e3"], "unrecognized arguments: --tol 1e3"),
], ids=["unknown-flag", "bad-int", "verify-tol"])
def test_bad_argument_is_a_config_error(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("configuration error: coldamp") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["budget", "--freq-max", "inf", "--points", "5"],
     "frequency bounds must be positive and finite, got 0.0005 and inf"),
    (["budget", "--freq-min", "nan", "--freq-max", "1e-3", "--points", "5"],
     "frequency bounds must be positive and finite, got nan and 0.001"),
    (["sweep", "--min", "1e-4", "--max", "inf"],
     "frequency bounds must be positive and finite, got 0.0001 and inf"),
    (["sweep", "--axis", "R_a", "--min", "-1", "--max", "1e6"],
     "R_a bounds must be positive and finite, got -1.0 and 1000000.0"),
    (["sweep", "--axis", "R_a", "--min", "1e6", "--max", "1e4"],
     "R_a lower bound must be below the upper bound"),
    (["budget", "--freq-min", "1e-2", "--freq-max", "1e-4", "--points", "5"],
     "frequency lower bound must be below the upper bound"),
    (["sweep", "--axis", "R_a", "--min", "1", "--max", "1.7976931348623157e308", "--points", "5"],
     "R_a grid leaves the float range"),
], ids=["budget-inf", "budget-nan", "sweep-inf", "sweep-negative-axis", "sweep-decreasing",
        "budget-decreasing", "sweep-overflow"])
def test_bad_grid_bounds_are_one_line_config_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coldamp")


def test_summary_frequency_matches_config(capsys):
    _, _, err = run(["budget"], capsys)
    assert "0.0005" in err
