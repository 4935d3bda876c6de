"""Command-line interface: exit codes, CSV contract, determinism."""

import argparse
import hashlib
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import coldamp.verify as verify
from coldamp import budget, cli, sensor
from coldamp.noise import LINE_LABELS
from coldamp.sensor import BudgetPoint, estimator_coefficients

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
    names = list(BudgetPoint._fields)
    assert lines[0].split(",") == ["frequency_hz", *names[1:], "config_digest", "tool_version"]
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == len(names) + 2
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


@pytest.mark.parametrize("argv", [["--min", "1e-4", "--max", "1e-2"],
                                  ["--axis", "R_a", "--min", "1e4", "--max", "1e6"]],
                         ids=["frequency", "R_a"])
def test_sweep_csv_fields_round_trip(argv, capsys):
    """The array columns' CSV, like budget's lists, reparses and reformats to itself."""
    code, out, _ = run(["sweep", *argv, "--points", "200"], capsys)
    assert code == cli.EXIT_OK
    header, *rows = out.strip().splitlines()
    assert len(rows) == 200
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


def _shipped_with(tmp_path, old, new, *edits):
    """The shipped config with old replaced by new, then each further (old, new) edit."""
    text = cli._default_config_text()
    for old, new in [(old, new), *edits]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "edited.cfg"
    path.write_text(text)
    return str(path)


def _perturbed(tmp_path):
    """The shipped config with every value scaled by 10 ** uniform(-0.5, 0.5)."""
    rng = random.Random(0)
    text = re.sub(r"^(\w+ = )(\S+)",
                  lambda m: f"{m.group(1)}{float(m.group(2)) * 10.0 ** rng.uniform(-0.5, 0.5)!r}",
                  cli._default_config_text(), flags=re.MULTILINE)
    path = tmp_path / "perturbed.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("points", [1, 50, 1000])
@pytest.mark.parametrize("source", ["shipped", "perturbed"])
def test_budget_csv_equals_the_numpy_grid(source, points, tmp_path, capsys):
    """budget evaluates its grid point by point in floats; its CSV is that of
    the numpy grid, byte for byte."""
    argv = [] if source == "shipped" else ["--config", _perturbed(tmp_path)]
    if points > 1:
        argv += ["--freq-min", "1e-4", "--freq-max", "1e-2", "--points", str(points)]
    code, out, _ = run(["budget", *argv], capsys)
    assert code == cli.EXIT_OK
    cfg = cli._load(argparse.Namespace(config=argv[1] if source == "perturbed" else None))
    grid = cli._geometric_grid(1e-4, 1e-2, points, "frequency") if points > 1 else [cfg.omega]
    assert out == cli._csv(budget.sweep(cfg.params, "frequency", np.array(grid)), cfg)


def test_a_float_overflow_reads_as_the_numpy_error(tmp_path, capsys):
    """At 1e-200 C/m kappa_t^2 underflows to 0: a float square overflows where
    numpy gives inf, and budget prints the numpy path's error."""
    path = _shipped_with(tmp_path, "coupling = 1.0e-7 C/m", "coupling = 1e-200 C/m")
    cfg = cli._load(argparse.Namespace(config=path))
    with pytest.raises(OverflowError):
        sensor.sensor_noise_spectrum(cfg.params, cfg.omega)
    with pytest.raises(ValueError) as err:
        budget.sweep(cfg.params, "frequency", np.array([cfg.omega]))
    assert str(err.value) == "the budget leaves the float range: sigma_vse = inf"
    code, out, text = run(["budget", "--config", path], capsys)
    assert (code, out, text) == (cli.EXIT_CONFIG, "", f"configuration error: {err.value}\n")


@pytest.mark.parametrize("argv", [
    ["budget"],
    ["sweep", "--min", "1e-4", "--max", "1e-2"],
    ["sweep", "--axis", "R_a", "--min", "1e4", "--max", "1e6"],
], ids=["budget", "sweep", "sweep-axis"])
@pytest.mark.parametrize("carrier, edit, message", [
    ("1e-300", ("loss_resistance = 2.5e5 ohm", "loss_resistance = 1e-300 ohm"),
     "the budget leaves the float range: sigma_vse = inf"),
    ("1e300", ("feedback_impedance = 1.6e5 ohm", "feedback_impedance = 5e-324 ohm"),
     "the budget leaves the float range: sigma_vse = nan"),
], ids=["carrier-1e-300-R_l-1e-300", "carrier-1e300-Z_f-5e-324"])
def test_a_parameter_only_division_by_zero_reads_as_the_numpy_error(carrier, edit, message, argv,
                                                                     tmp_path, capsys):
    """A division of parameters alone by zero raised ZeroDivisionError in floats,
    and again on numpy while the parameters stayed floats: a traceback."""
    path = _shipped_with(tmp_path, "carrier_frequency = 1.0e5 Hz",
                         f"carrier_frequency = {carrier} Hz", edit)
    code, out, err = run([*argv, "--config", path], capsys)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", f"configuration error: {message}\n")


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


@pytest.mark.parametrize("argv", [
    ["budget"],
    ["sweep", "--min", "1e-4", "--max", "1e-2"],
    ["sweep", "--axis", "R_a", "--min", "1e4", "--max", "1e6"],
], ids=["budget", "sweep", "sweep-axis"])
def test_zero_coupling_budget_is_one_pinned_line(argv, tmp_path, capsys):
    """The failure holds at every point, so no point (and no rad/s value) is named."""
    path = _shipped_with(tmp_path, "coupling = 1.0e-7 C/m", "coupling = 0 C/m")
    code, out, err = run([*argv, "--config", path], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == ("configuration error: the force estimator is undefined without "
                   "electromechanical coupling\n")


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


@pytest.mark.parametrize("old, new, omega", [
    ("coupling = 1.0e-7 C/m", "coupling = 5e-324 C/m", "0.000234423"),
    ("frequency = 5.0e-4 Hz", "frequency = 1e200 Hz", "1.61832e+201"),
], ids=["coupling-5e-324", "frequency-1e200"])
def test_verify_without_a_drive_response_exits_numerical(old, new, omega, tmp_path, capsys):
    """A transfer row with a zero F_ext entry ended in a ZeroDivisionError traceback."""
    code, out, err = run(["verify", "--config", _shipped_with(tmp_path, old, new)], capsys)
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err == ("numerical failure: transfer row has no drive response "
                   f"at omega = {omega} rad/s\n")


def test_verify_fails_the_exponent_where_the_loop_gains_overflow(tmp_path, capsys):
    """At stiffness 1e300 N/m the finite-gain fit asks for gains of up to 1e7 |Xi_m|,
    past the float range: the exponent reads nan and fails, every other result
    still prints, and verify exits 2 (it ended in a numerical failure, exit 3)."""
    config = _shipped_with(tmp_path, "stiffness = 4.0e-6 N/m", "stiffness = 1e300 N/m")
    code, out, err = run(["verify", "--draws", "2", "--config", config], capsys)
    assert (code, err) == (cli.EXIT_VERIFY, "verification FAILED\n")
    assert len(out.splitlines()) == 9
    assert "[FAIL] finite-gain convergence exponent: max deviation nan " in out


@pytest.mark.parametrize("old, new", [
    ("mass = 0.27 kg", "mass = 1e10 kg"),
    ("stiffness = 4.0e-6 N/m", "stiffness = 1e10 N/m"),
    ("damping = 1.3e-5 kg/s", "damping = 1e-10 kg/s"),
    ("damping = 1.3e-5 kg/s", "damping = 1e-200 kg/s"),
    ("damping = 1.3e-5 kg/s", "damping = 1e-300 kg/s"),
    ("frequency = 5.0e-4 Hz", "frequency = 1e-10 Hz"),
    ("frequency = 5.0e-4 Hz", "frequency = 1e10 Hz"),
], ids=["mass-1e10", "stiffness-1e10", "damping-1e-10", "damping-1e-200", "damping-1e-300",
        "frequency-1e-10", "frequency-1e10"])
def test_verify_passes_where_the_mechanical_impedance_is_far_from_damping(old, new, tmp_path,
                                                                         capsys):
    """|Xi_m|/H_m far from the shipped 32.7: the finite-gain fit takes its gains
    relative to |Xi_m|, which sets the convergence, and passes; taken relative
    to H_m, its slope read about 0 and verify failed on correct code."""
    code, out, _ = run(["verify", "--config", _shipped_with(tmp_path, old, new)], capsys)
    assert code == cli.EXIT_OK
    assert "[FAIL]" not in out


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
    (["budget", "--freq-min", "1", "--freq-max", "1e308", "--points", "2"],
     "frequency grid leaves the float range"),
    (["budget", "--points", "50"], "frequency lower bound must be below the upper bound"),
    (["budget", "--points", "0"], "points must be >= 1"),
    (["budget", "--points", "1", "--freq-min", "1", "--freq-max", "2"],
     "points=1 requires equal bounds"),
    (["sweep", "--points", "1", "--min", "1", "--max", "2"], "points=1 requires equal bounds"),
    (["verify", "--draws", "0"], "draws must be >= 1"),
    # Finite grids whose budgets overflow (these gave a nan/inf CSV with exit 0).
    (["sweep", "--axis", "K", "--min", "1e300", "--max", "1e308", "--points", "2"],
     "the budget leaves the float range: delta = inf"),
    (["budget", "--freq-min", "1e300", "--freq-max", "1e301", "--points", "2"],
     "the budget leaves the float range: sigma_vse = nan"),
    (["budget", "--freq-min", "1e-200", "--freq-max", "1e-190", "--points", "2"],
     "the budget leaves the float range: sigma_vse = nan"),
    (["sweep", "--axis", "R_a", "--min", "1e-320", "--max", "1e-318", "--points", "2"],
     "the budget leaves the float range: sigma_vse = nan"),
    (["sweep", "--axis", "K", "--min", "1", "--max", "1e308", "--points", "3"],
     "sweep failed at K = 1e+154: the budget leaves the float range: sigma_vse = nan"),
    # Bounds one float apart round to repeated points (budget printed 5 rows at 1 Hz).
    (["budget", "--freq-min", "1", "--freq-max", "1.0000000000000002", "--points", "5"],
     "sweep grid must be strictly increasing"),
    (["sweep", "--min", "1", "--max", "1.0000000000000002", "--points", "5"],
     "sweep grid must be strictly increasing"),
], ids=["budget-inf", "budget-nan", "sweep-inf", "sweep-negative-axis", "sweep-decreasing",
        "budget-decreasing", "sweep-overflow", "budget-angular-overflow", "budget-points-50",
        "budget-points-0", "budget-points-1", "sweep-points-1", "verify-draws-0",
        "sweep-K-overflow", "budget-high-frequency", "budget-low-frequency",
        "sweep-R_a-subnormal", "sweep-K-partial", "budget-repeated", "sweep-repeated"])
def test_bad_grid_bounds_are_one_line_config_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    ("mass = 0.27 kg", "mass = 1e300 kg",
     "1 + Delta^2 leaves the float range: Delta = -2.41661e+302"),
    ("damping = 1.3e-5 kg/s", "damping = 1e-300 kg/s",
     "1 + Delta^2 leaves the float range: Delta = 4.2501e+296"),
    ("carrier_frequency = 1.0e5 Hz", "carrier_frequency = 1e300 Hz",
     "the matching search leaves the float range: log10(R_a/R_m) in [-308.087, -296.087]"),
    ("mass = 0.27 kg", "mass = 1.7e308 kg",
     "the matching optimum leaves the float range: ratio_opt = inf"),
    ("damping = 1.3e-5 kg/s", "damping = 1.7e308 kg/s",
     "the matching optimum leaves the float range: sigma_opt = inf"),
], ids=["mass-1e300", "damping-1e-300", "carrier-1e300", "mass-1.7e308", "damping-1.7e308"])
def test_optimize_outside_the_float_range_is_one_config_error(old, new, message, tmp_path,
                                                              capsys):
    """A matching the floats cannot hold is one pinned line, not a traceback."""
    code, out, err = run(["optimize", "--config", _shipped_with(tmp_path, old, new)], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: {message}\n"


def test_negative_seed_is_a_config_error(capsys):
    code, out, err = run(["verify", "--seed", "-1"], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == "configuration error: seed must be >= 0, got -1\n"


def test_a_drawn_set_out_of_range_names_its_draw(tmp_path, capsys):
    """The configured mass is finite; the draw that overflows it is named."""
    config = _shipped_with(tmp_path, "mass = 0.27 kg", "mass = 1e307 kg")
    assert run(["verify", "--config", config], capsys) == (
        cli.EXIT_CONFIG, "", "configuration error: seed 0, draw 1: M must be finite, got inf\n")


# One-key edits of the shipped config: every key at each of these values.
_PROBE_KEYS = re.findall(r"^(\w+) = (\S+ \S+)$", cli._default_config_text(), re.MULTILINE)
_PROBE_VALUES = ("5e-324", "1e-300", "1e-200", "1e-10", "1e10", "1e200", "1e300", "1.7e308")


_PROBE_ARGV = {"sweep": ["sweep", "--min", "1e-4", "--max", "1e-2"],   # frequency, 25 points
               "verify": ["verify", "--draws", "2"]}                    # 20 points


@pytest.mark.filterwarnings("ignore:carrier-to-signal frequency ratio")
@pytest.mark.filterwarnings("ignore:R_r/\\|Z_f\\| = ")     # the loop's weak-loading condition
@pytest.mark.parametrize("command", ["optimize", "budget", "sweep", "verify"])
@pytest.mark.parametrize("value", _PROBE_VALUES)
@pytest.mark.parametrize("key, old", _PROBE_KEYS, ids=[key for key, _ in _PROBE_KEYS])
def test_one_key_edits_end_in_a_result_or_one_typed_line(key, old, value, command, tmp_path,
                                                          capsys):
    """No traceback, no inf or nan with exit 0, and one line for any failure; a
    failed verification prints each result and one line on stderr."""
    new = f"{key} = {value} {old.split()[1]}"
    argv = _PROBE_ARGV.get(command, [command])
    code, out, err = run([*argv, "--config", _shipped_with(tmp_path, f"{key} = {old}", new)],
                         capsys)
    if code == cli.EXIT_OK:
        assert not re.search(r"\b(inf|nan)\b", out + err)
        return
    if code == cli.EXIT_VERIFY:
        assert all(re.match(r"\[(ok  |FAIL)\] ", line) for line in out.splitlines())
        assert len(out.splitlines()) == 9 and err == "verification FAILED\n"
        return
    prefix = {cli.EXIT_CONFIG: "configuration error: ",
              cli.EXIT_NUMERICAL: "numerical failure: "}[code]
    assert out == ""
    assert err.startswith(prefix) and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", _PROBE_VALUES)
@pytest.mark.parametrize("key, old", [("detection_resistance", "50.0 ohm"),
                                      ("feedback_impedance", "1.6e5 ohm")],
                         ids=["R_r", "Z_f"])
def test_verify_warns_once_about_a_loaded_output(key, old, value, tmp_path, capsys):
    """The weak-loading precondition R_r/|Z_f| << 1 is checked once for the design, and
    its one warning points at the caller of run_checks (it was one per check at it)."""
    path = _shipped_with(tmp_path, f"{key} = {old}", f"{key} = {value} {old.split()[1]}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(["verify", "--draws", "2", "--config", path], capsys)
    loading = [w for w in caught if str(w.message).startswith("R_r/|Z_f| = ")]
    assert len(loading) <= 1
    if code in (cli.EXIT_OK, cli.EXIT_VERIFY):
        params = cli._load(argparse.Namespace(config=path)).params
        assert len(loading) == (params.R_r / params.zf_mag >= 1e-2)
        assert all(Path(w.filename).name == "cli.py" for w in loading)


@pytest.mark.parametrize("value", ["1e-200", "1e200", "1.7e308"])
def test_optimize_does_not_depend_on_the_coupling(value, tmp_path, capsys):
    """kappa_t only converts between R_a and R_a/R_m, which optimize reports."""
    shipped = run(["optimize"], capsys)
    path = _shipped_with(tmp_path, "coupling = 1.0e-7 C/m", f"coupling = {value} C/m")
    assert run(["optimize", "--config", path], capsys) == shipped


@pytest.mark.parametrize("old, new, line", [
    ("mechanical_temperature = 300.0 K", "mechanical_temperature = 1e300 K",
     "  thermal part        : 3.58968740000e+272 N^2/Hz"),
    ("mechanical_temperature = 300.0 K", "mechanical_temperature = 1.7e308 K",
     "  thermal part        : 6.10246858000e+280 N^2/Hz"),
    ("amplifier_temperature = 1.5 K", "amplifier_temperature = 1.7e308 K",
     "  detection part      : 3.99203122451e+274 N^2/Hz"),
], ids=["T_m-1e300", "T_m-1.7e308", "T_a-1.7e308"])
def test_optimize_at_extreme_temperatures_is_classical(old, new, line, tmp_path, capsys):
    """k Theta = k_B T there: the thermal part is 2 H_m k_B T_m, and the
    detection part scales with k_B T_a (these read inf, or exit 3)."""
    code, out, _ = run(["optimize", "--config", _shipped_with(tmp_path, old, new)], capsys)
    assert code == cli.EXIT_OK
    assert line in out.splitlines()


@pytest.mark.parametrize("value", ["1e-300", "1e-200", "1e200"],
                         ids=["carrier-1e-300", "carrier-1e-200", "carrier-1e200"])
def test_optimize_at_extreme_carriers_agrees_with_its_cross_check(value, tmp_path, capsys):
    """(Omega/omega_t)^2 alone leaves the float range at these carriers, where
    optimize exited 1 (1e-300 and 1e-200 Hz) or 3 (1e200 Hz, an edge minimum)."""
    path = _shipped_with(tmp_path, "carrier_frequency = 1.0e5 Hz",
                         f"carrier_frequency = {value} Hz")
    code, out, _ = run(["optimize", "--config", path], capsys)
    assert code == cli.EXIT_OK
    residual = re.search(r"^numerical cross-check : (\S+) relative$", out, re.MULTILINE)
    assert float(residual.group(1)) < 1e-6


@pytest.mark.parametrize("command", ["budget", "dump-config"])
@pytest.mark.parametrize("option", ["--config", "--out"])
def test_a_directory_path_is_one_config_error(command, option, tmp_path, capsys):
    """An unreadable config or an unwritable --out ended in an OSError traceback."""
    code, out, err = run([command, option, str(tmp_path)], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coldamp")


def test_summary_frequency_matches_config(capsys):
    _, _, err = run(["budget"], capsys)
    assert "0.0005" in err
