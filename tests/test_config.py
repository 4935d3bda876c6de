"""Configuration parsing, validation and canonical round trip."""

import math
import re

import pytest

from coldamp.config import ConfigError, dumps, load, loads

GOOD = """
[mechanics]
mass = 0.27 kg
stiffness = 4.0e-6 N/m
damping = 1.3e-5 kg/s

[electronics]
coupling = 1.0e-7 C/m
carrier_frequency = 1.0e5 Hz
loss_resistance = 2.5e5 ohm
detection_resistance = 50.0 ohm
amplifier_resistance = 1.5e5 ohm
feedback_impedance = 1.6e5 ohm
transducer_impedance = 1.0e14 ohm

[noise]
mechanical_temperature = 300.0 K
amplifier_temperature = 1.5 K
loss_temperature = 300.0 K
detection_temperature = 300.0 K

[analysis]
frequency = 5.0e-4 Hz
"""


def test_parses_reference_design():
    cfg = loads(GOOD)
    p = cfg.params
    assert p.M == 0.27
    assert p.K == 4.0e-6
    assert p.H_m == 1.3e-5
    assert p.kappa_t == 1.0e-7
    assert p.omega_t == pytest.approx(2.0 * math.pi * 1.0e5, rel=1e-15, abs=0.0)
    assert p.R_l == 2.5e5
    assert p.R_r == 50.0
    assert p.R_a == 1.5e5
    assert cfg.frequency == pytest.approx(5.0e-4, rel=1e-15, abs=0.0)
    # Impedance magnitudes resolve to capacitances at the right frequencies.
    assert 1.0 / (p.omega_t * p.C_f) == pytest.approx(1.6e5, rel=1e-12, abs=0.0)
    assert 1.0 / (2.0 * cfg.omega * p.C_t) == pytest.approx(1.0e14, rel=1e-12, abs=0.0)


def test_digest_tracks_content():
    cfg = loads(GOOD)
    assert len(cfg.digest) == 12
    assert loads(GOOD).digest == cfg.digest
    assert loads(GOOD + "# trailing comment\n").digest != cfg.digest


def test_bundled_config_matches_inline():
    from importlib.resources import files as _files

    text = (_files("coldamp") / "data" / "microscope.cfg").read_text()
    cfg = loads(text)
    assert cfg.params.M == 0.27
    assert cfg.params.H_m == 1.3e-5
    assert cfg.frequency == pytest.approx(5.0e-4, rel=1e-15, abs=0.0)


def test_missing_required_key():
    broken = GOOD.replace("mass = 0.27 kg\n", "")
    with pytest.raises(ConfigError, match="mass"):
        loads(broken)


def test_unknown_key_reports_line():
    broken = GOOD.replace("mass = 0.27 kg", "mass = 0.27 kg\nbogus = 1.0 kg")
    with pytest.raises(ConfigError, match=r"line \d+.*bogus"):
        loads(broken)


def test_wrong_unit_names_key():
    broken = GOOD.replace("mass = 0.27 kg", "mass = 0.27 g")
    with pytest.raises(ConfigError, match="mass"):
        loads(broken)


def test_duplicate_key():
    broken = GOOD.replace("mass = 0.27 kg", "mass = 0.27 kg\nmass = 0.3 kg")
    with pytest.raises(ConfigError, match="twice"):
        loads(broken)


def test_bad_number():
    broken = GOOD.replace("mass = 0.27 kg", "mass = heavy kg")
    with pytest.raises(ConfigError, match="heavy"):
        loads(broken)


def test_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        loads("[mystery]\n" + GOOD)


def test_assignment_before_section():
    with pytest.raises(ConfigError, match="before any section"):
        loads("mass = 0.27 kg\n" + GOOD)


def test_positivity_error_surfaces():
    broken = GOOD.replace("damping = 1.3e-5 kg/s", "damping = -1.0 kg/s")
    with pytest.raises(ConfigError):
        loads(broken)


def test_impedance_capacitance_exclusive():
    both = GOOD.replace(
        "feedback_impedance = 1.6e5 ohm",
        "feedback_impedance = 1.6e5 ohm\nfeedback_capacitance = 1.0e-11 F",
    )
    with pytest.raises(ConfigError, match="exactly one"):
        loads(both)
    neither = GOOD.replace("transducer_impedance = 1.0e14 ohm\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        loads(neither)


def test_capacitance_given_directly():
    direct = GOOD.replace(
        "feedback_impedance = 1.6e5 ohm",
        "feedback_capacitance = 2.0e-12 F",
    )
    assert loads(direct).params.C_f == 2.0e-12


def test_round_trip_exact():
    cfg = loads(GOOD)
    again = loads(dumps(cfg))
    assert again.params == cfg.params
    assert again.omega == cfg.omega


def test_load_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    cfg = load(str(path))
    assert cfg.path == str(path)
    assert cfg.params.M == 0.27


@pytest.mark.parametrize("key", ["frequency", "carrier_frequency",
                                 "feedback_impedance", "transducer_impedance"])
@pytest.mark.parametrize("value", ["0", "0.0", "-5e-4", "nan", "inf", "-inf"])
def test_nonpositive_or_nonfinite_value_names_key(key, value):
    line = next(l for l in GOOD.splitlines() if l.startswith(key + " "))
    unit = line.split()[-1]
    broken = GOOD.replace(line, f"{key} = {value} {unit}")
    match = rf"line \d+: key '{key}' must be positive and finite"
    with pytest.raises(ConfigError, match=match) as err:
        loads(broken)
    assert "\n" not in str(err.value)


def test_errors_name_the_source(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(GOOD.replace("frequency = 5.0e-4 Hz", "frequency = 0 Hz"))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line "):
        load(str(path))
    # Errors found after parsing name the source too.
    with pytest.raises(ConfigError, match="^run.cfg: M must be strictly positive"):
        loads(GOOD.replace("mass = 0.27 kg", "mass = -1 kg"), path="run.cfg")
    with pytest.raises(ConfigError, match="^<string>: missing required key 'mass'"):
        loads(GOOD.replace("mass = 0.27 kg\n", ""))
