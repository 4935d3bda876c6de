"""Configuration parsing, validation and canonical round trip."""

import math
import re
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldamp.config import _KEYS, ConfigError, RunConfig, dumps, load, loads
from coldamp.params import InstrumentParams

SHIPPED = (files("coldamp") / "data" / "microscope.cfg").read_text()

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
    assert cfg == loads(GOOD)
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


def test_text_that_is_not_utf8_is_a_config_error():
    """A lone surrogate, even in a comment, cannot be hashed: the text does not load."""
    with pytest.raises(ConfigError) as err:
        loads("#\ud800 in a comment\n" + GOOD, path="run.cfg")
    assert str(err.value) == ("run.cfg: 'utf-8' codec can't encode character '\\ud800' "
                              "in position 1: surrogates not allowed")
    assert isinstance(err.value.__cause__, UnicodeEncodeError)


def _edit(old, new):
    assert old in GOOD
    return GOOD.replace(old, new, 1)


@pytest.mark.parametrize("text, path, message", [
    ("[mystery]\n" + GOOD, None, "<string>: line 1: unknown section [mystery]"),
    ("mass = 0.27 kg\n" + GOOD, None, "<string>: line 1: assignment before any section header"),
    (_edit("mass = 0.27 kg", "mass 0.27 kg"), None,
     "<string>: line 3: expected 'key = value unit'"),
    (_edit("mass = 0.27 kg", "mass = 0.27 kg\nbogus = 1.0 kg"), None,
     "<string>: line 4: unknown key 'bogus' in section [mechanics]"),
    (_edit("[analysis]\n", "[analysis]\nmass = 0.27 kg\n"), None,
     "<string>: line 23: unknown key 'mass' in section [analysis]"),
    (_edit("mass = 0.27 kg", "mass = 0.27"), None,
     "<string>: line 3: key 'mass' needs exactly 'value unit', got '0.27'"),
    (_edit("mass = 0.27 kg", "mass = 0.27 g"), None,
     "<string>: line 3: key 'mass' expects unit 'kg', got 'g'"),
    (_edit("mass = 0.27 kg", "mass = heavy g"), None,
     "<string>: line 3: key 'mass' expects unit 'kg', got 'g'"),
    (_edit("mass = 0.27 kg", "mass = heavy kg"), None,
     "<string>: line 3: key 'mass': bad number 'heavy'"),
    (_edit("frequency = 5.0e-4 Hz", "frequency = 0 Hz"), None,
     "<string>: line 23: key 'frequency' must be positive and finite, got '0'"),
    (_edit("feedback_impedance = 1.6e5 ohm", "feedback_impedance = -inf ohm"), None,
     "<string>: line 13: key 'feedback_impedance' must be positive and finite, got '-inf'"),
    (_edit("frequency = 5.0e-4 Hz", "frequency = 5.0e-4 Hz\nfrequency = -1 Hz"), None,
     "<string>: line 24: key 'frequency' must be positive and finite, got '-1'"),
    (_edit("mass = 0.27 kg", "mass = 0.27 kg\nmass = 0.3 kg"), None,
     "<string>: line 4: key 'mass' assigned twice"),
    (_edit("feedback_impedance = 1.6e5 ohm",
           "feedback_impedance = 1.6e5 ohm\nfeedback_capacitance = 1.0e-11 F"), None,
     "<string>: exactly one of 'feedback_impedance' and 'feedback_capacitance' must be given"),
    (_edit("transducer_impedance = 1.0e14 ohm\n", ""), None,
     "<string>: exactly one of 'transducer_impedance' and 'transducer_capacitance' "
     "must be given"),
    (_edit("mass = 0.27 kg\n", ""), None,
     "<string>: missing required key 'mass' in section [mechanics]"),
    (_edit("frequency = 5.0e-4 Hz\n", ""), None,
     "<string>: missing required key 'frequency' in section [analysis]"),
    (_edit("mass = 0.27 kg", "mass = -1 kg"), None, "<string>: M must be strictly positive, got -1.0"),
    (_edit("coupling = 1.0e-7 C/m", "coupling = -1e-7 C/m"), None,
     "<string>: kappa_t must be >= 0, got -1e-07"),
    (_edit("feedback_impedance = 1.6e5 ohm", "feedback_capacitance = 0 F"), None,
     "<string>: C_f must be strictly positive, got 0.0"),
    (_edit("mass = 0.27 kg", "mass = -1 kg"), "run.cfg", "run.cfg: M must be strictly positive, got -1.0"),
    (_edit("mass = 0.27 kg", "mass = 0.27 g"), "run.cfg",
     "run.cfg: line 3: key 'mass' expects unit 'kg', got 'g'"),
    # Found by the one-line edit property: a ZeroDivisionError before.
    (_edit("transducer_impedance = 1.0e14 ohm", "transducer_impedance = 5e-324 ohm"), None,
     "<string>: C_t must be finite, got inf"),
    # 2 pi f overflows: loads returned omega = inf before, which dumps could not write back.
    (_edit("transducer_impedance = 1.0e14 ohm", "transducer_capacitance = 1e-10 F")
     .replace("frequency = 5.0e-4 Hz", "frequency = 1e308 Hz"), None,
     "<string>: line 23: key 'frequency' must be positive and finite, got '1e308'"),
    (_edit("carrier_frequency = 1.0e5 Hz", "carrier_frequency = 1e308 Hz"), None,
     "<string>: line 9: key 'carrier_frequency' must be positive and finite, got '1e308'"),
], ids=["unknown-section", "before-section", "missing-equals", "unknown-key", "key-in-other-section",
        "no-value-unit-pair", "wrong-unit", "unit-before-number", "bad-number", "non-positive",
        "non-finite-impedance", "positivity-before-twice", "assigned-twice", "exactly-one-both",
        "exactly-one-neither", "missing-required", "missing-analysis", "params-positive",
        "params-nonnegative", "params-capacitance", "path-prefix-params", "path-prefix-line",
        "impedance-underflow", "frequency-overflow", "carrier-overflow"])
def test_error_messages_are_pinned(text, path, message):
    """Every kind of ConfigError, compared as a whole string."""
    with pytest.raises(ConfigError) as err:
        loads(text, path=path)
    assert str(err.value) == message


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_HZ = st.floats(min_value=0.0, exclude_min=True, max_value=sys.float_info.max / 8)
_PARAMS = st.fixed_dictionaries({
    **dict.fromkeys(["M", "H_m", "R_l", "R_r", "R_a", "C_f", "C_t"], _POSITIVE),
    **dict.fromkeys(["K", "kappa_t", "T_m", "T_a", "T_l", "T_r"], _NONNEGATIVE),
    "omega_t": _HZ.map(lambda f: f * (2.0 * math.pi)),
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=_PARAMS, frequency=_HZ)
def test_dumps_round_trips_every_valid_parameter_set(fields, frequency):
    """Angular frequencies are drawn as 2 pi times a float in Hz, as loads makes them."""
    cfg = RunConfig(params=InstrumentParams(**fields), omega=frequency * (2.0 * math.pi),
                    text="")
    again = loads(dumps(cfg))
    assert again.params == cfg.params
    assert again.omega == cfg.omega


_ASSIGNMENT = re.compile(r"^(\w+) = (\S+) (\S+)$")
_VALUES = st.one_of(st.floats().map(repr), st.text(max_size=8),
                    st.sampled_from(["0", "-0", "5e-324", "1e-320", "1e308", "1_0", "0x1p3"]))
_WORDS = st.one_of(st.sampled_from([word for row in _KEYS for word in row[:3]]),
                   st.text(max_size=8))
_LINES = st.one_of(st.text(max_size=30), st.builds("{} = {} {}".format, _WORDS, _VALUES, _WORDS))


@st.composite
def _one_line_edits(draw):
    """The shipped config with one line's value or unit changed, or one line
    replaced, inserted or dropped."""
    lines = SHIPPED.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["value", "unit", "replace", "insert", "drop"]))
    assignment = _ASSIGNMENT.match(lines[k])
    if edit in ("value", "unit") and assignment:
        key, value, unit = assignment.groups()
        if edit == "value":
            value = draw(_VALUES)
        else:
            unit = draw(_WORDS)
        lines[k] = f"{key} = {value} {unit}"
    elif edit == "drop":
        del lines[k]
    else:
        lines[k:k + (edit == "replace")] = [draw(_LINES)]
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_one_line_edits())
def test_one_line_edits_load_or_raise_a_one_line_config_error(text):
    """No other exception escapes, and whatever loads also dumps and loads again."""
    try:
        cfg = loads(text)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1
        return
    again = loads(dumps(cfg))
    assert again.params == cfg.params
    assert again.omega == cfg.omega


def test_readme_lists_every_config_key():
    """README's Configuration table is the config table, row for row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]+)` \| `([\w.]+)` \|$", readme,
                      flags=re.MULTILINE)
    assert rows == [(section, key, unit, field or "RunConfig.omega")
                    for key, section, unit, field in _KEYS]
