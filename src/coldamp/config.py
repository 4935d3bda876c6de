"""Plain-text run configuration: parsing, validation and canonical dump.

The format is deliberately simple: named sections in square brackets,
one `key = value unit` assignment per line, `#` comments.  Units are
fixed per key and checked verbatim; anything unknown is an error that
names the key and the line it appeared on.  One table, _KEYS, describes
every key; parsing, loading and dumping all read it.  Loading only
parses and validates; a RunConfig hashes its text when its digest is read.
"""

from __future__ import annotations

import math

from .params import InstrumentParams, Record

# One row per key, in canonical order: key, section, unit, and the
# InstrumentParams field it sets (None: the analysis frequency, which is
# RunConfig.omega).  Values in Hz are stored as angular frequencies, rad/s.
# Each impedance row sets the field of the capacitance row after it;
# exactly one of the two is given, and dumps writes the capacitance.
_KEYS = (
    ("mass", "mechanics", "kg", "M"),
    ("stiffness", "mechanics", "N/m", "K"),
    ("damping", "mechanics", "kg/s", "H_m"),
    ("coupling", "electronics", "C/m", "kappa_t"),
    ("carrier_frequency", "electronics", "Hz", "omega_t"),
    ("loss_resistance", "electronics", "ohm", "R_l"),
    ("detection_resistance", "electronics", "ohm", "R_r"),
    ("amplifier_resistance", "electronics", "ohm", "R_a"),
    ("feedback_impedance", "electronics", "ohm", "C_f"),
    ("feedback_capacitance", "electronics", "F", "C_f"),
    ("transducer_impedance", "electronics", "ohm", "C_t"),
    ("transducer_capacitance", "electronics", "F", "C_t"),
    ("mechanical_temperature", "noise", "K", "T_m"),
    ("amplifier_temperature", "noise", "K", "T_a"),
    ("loss_temperature", "noise", "K", "T_l"),
    ("detection_temperature", "noise", "K", "T_r"),
    ("frequency", "analysis", "Hz", None),
)
# Impedance key -> (the frequency its magnitude is quoted at, scale), with
# C = 1/(scale omega |Z|): Z_f at the carrier, and Z_t at the analysis
# frequency, where the detuned element looks like 1/(2 Omega C).
_IMPEDANCES = {"feedback_impedance": ("carrier_frequency", 1.0),
               "transducer_impedance": ("frequency", 2.0)}
_UNITS: dict[str, dict[str, str]] = {}      # section -> key -> unit
_FIELDS: dict[str | None, list[str]] = {}   # field -> the keys that set it
for _key, _section, _unit, _field in _KEYS:
    _UNITS.setdefault(_section, {})[_key] = _unit
    _FIELDS.setdefault(_field, []).append(_key)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class RunConfig(Record):
    """Parsed configuration, a Record: instrument parameters, analysis frequency, source text."""

    params: InstrumentParams
    omega: float            # analysis frequency, rad/s
    text: str               # the source text

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)

    @property
    def digest(self) -> str:
        """Short content hash of the source text; hashlib loads on the first call."""
        import hashlib
        return hashlib.sha256(self.text.encode()).hexdigest()[:12]


def _parse_text(text: str) -> dict[str, float]:
    """key -> value in stored units (frequencies in rad/s), every key checked."""
    values: dict[str, float] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _UNITS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any section header")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value unit'")
        key, _, rest = line.partition("=")
        key = key.strip()
        expected_unit = _UNITS[section].get(key)
        if expected_unit is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        parts = rest.split()
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: key {key!r} needs exactly 'value unit', got {rest.strip()!r}"
            )
        value_text, unit = parts
        if unit != expected_unit:
            raise ConfigError(
                f"line {lineno}: key {key!r} expects unit {expected_unit!r}, got {unit!r}"
            )
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: bad number {value_text!r}") from exc
        if unit == "Hz":
            value *= 2.0 * math.pi
        # Frequencies and impedances are divided by, so they must be positive and finite.
        if (unit == "Hz" or key in _IMPEDANCES) and not 0.0 < value < math.inf:
            raise ConfigError(f"line {lineno}: key {key!r} must be positive and finite, "
                              f"got {value_text!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} assigned twice")
        values[key] = value

    for key, section, _, field in _KEYS:
        if key not in values and len(_FIELDS[field]) == 1:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return values


def loads(text: str, path: str | None = None) -> RunConfig:
    """Parse configuration text into a RunConfig.

    Every error is a one-line ConfigError that starts with path, or with
    "<string>" for text that came without one.
    """
    try:
        text.encode()    # UTF-8 text only: the digest hashes these bytes
        values = _parse_text(text)
        fields = {}
        for field, keys in _FIELDS.items():
            given = [key for key in keys if key in values]
            if len(given) != 1:
                raise ConfigError(f"exactly one of {' and '.join(map(repr, keys))} must be given")
            key, = given
            fields[field] = values[key]
            if key in _IMPEDANCES:
                quoted_at, scale = _IMPEDANCES[key]
                denominator = scale * values[quoted_at] * values[key]
                # An impedance small enough to underflow here means an infinite C.
                fields[field] = 1.0 / denominator if denominator else math.inf
        omega = fields.pop(None)
        params = InstrumentParams(**fields)
    except ValueError as exc:     # UnicodeEncodeError too
        raise ConfigError(f"{path or '<string>'}: {exc}") from exc
    return RunConfig(params=params, omega=omega, text=text)


def load(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), path=path)


def dumps(cfg: RunConfig) -> str:
    """Canonical text form of a configuration (capacitances spelled out).

    Round trip: loads(dumps(cfg)) reproduces the same parameters to full
    float precision, though the digest tracks the new text.  Each angular
    frequency must be 2 pi times a float in Hz, as loads makes it; not
    every float in rad/s has a Hz value that maps back to it.
    """
    sections: dict[str, list[str]] = {}
    for key, section, unit, field in _KEYS:
        if key in _IMPEDANCES:
            continue
        value = cfg.omega if field is None else getattr(cfg.params, field)
        if unit == "Hz":
            value /= 2.0 * math.pi
        sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {value!r} {unit}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"
