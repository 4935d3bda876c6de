"""Plain-text run configuration: parsing, validation and canonical dump.

The format is deliberately simple: named sections in square brackets,
one `key = value unit` assignment per line, `#` comments.  Units are
fixed per key and checked verbatim; anything unknown is an error that
names the key and the line it appeared on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .params import InstrumentParams

# section -> key -> (unit, required)
_SCHEMA: dict[str, dict[str, tuple[str, bool]]] = {
    "mechanics": {
        "mass": ("kg", True),
        "stiffness": ("N/m", True),
        "damping": ("kg/s", True),
    },
    "electronics": {
        "coupling": ("C/m", True),
        "carrier_frequency": ("Hz", True),
        "loss_resistance": ("ohm", True),
        "detection_resistance": ("ohm", True),
        "amplifier_resistance": ("ohm", True),
        "feedback_impedance": ("ohm", False),
        "feedback_capacitance": ("F", False),
        "transducer_impedance": ("ohm", False),
        "transducer_capacitance": ("F", False),
    },
    "noise": {
        "mechanical_temperature": ("K", True),
        "amplifier_temperature": ("K", True),
        "loss_temperature": ("K", True),
        "detection_temperature": ("K", True),
    },
    "analysis": {
        "frequency": ("Hz", True),
    },
}
# Keys whose value must be positive and finite before anything divides by it.
_POSITIVE = ("carrier_frequency", "frequency", "feedback_impedance", "transducer_impedance")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: instrument parameters plus analysis frequency."""

    params: InstrumentParams
    omega: float            # analysis frequency, rad/s
    digest: str             # short content hash of the source text
    path: str | None = None

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)


def _parse_text(text: str) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], float] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any section header")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value unit'")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        parts = rest.split()
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: key {key!r} needs exactly 'value unit', got {rest.strip()!r}"
            )
        value_text, unit = parts
        expected_unit = _SCHEMA[section][key][0]
        if unit != expected_unit:
            raise ConfigError(
                f"line {lineno}: key {key!r} expects unit {expected_unit!r}, got {unit!r}"
            )
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: bad number {value_text!r}") from exc
        if key in _POSITIVE and not 0.0 < value < math.inf:
            raise ConfigError(f"line {lineno}: key {key!r} must be positive and finite, "
                              f"got {value_text!r}")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: key {key!r} assigned twice")
        values[(section, key)] = value

    for sec, keys in _SCHEMA.items():
        for key, (_, required) in keys.items():
            if required and (sec, key) not in values:
                raise ConfigError(f"missing required key {key!r} in section [{sec}]")
    return values


def _capacitance(values, carrier_omega, impedance_key, capacitance_key, scale):
    """Resolve an element given as either |Z| at a reference or directly as C."""
    z = values.get(("electronics", impedance_key))
    c = values.get(("electronics", capacitance_key))
    if (z is None) == (c is None):
        raise ConfigError(
            f"exactly one of {impedance_key!r} and {capacitance_key!r} must be given"
        )
    if c is not None:
        return c
    return 1.0 / (scale * carrier_omega * z)


def loads(text: str, path: str | None = None) -> RunConfig:
    """Parse configuration text into a RunConfig.

    Every error is a one-line ConfigError that starts with path, or with
    "<string>" for text that came without one.
    """
    try:
        values = _parse_text(text)
        omega_t = 2.0 * math.pi * values[("electronics", "carrier_frequency")]
        omega = 2.0 * math.pi * values[("analysis", "frequency")]
        c_f = _capacitance(values, omega_t, "feedback_impedance", "feedback_capacitance", 1.0)
        # The transducer impedance magnitude is quoted at the analysis
        # frequency, where the detuned element looks like 1/(2 Omega C).
        c_t = _capacitance(values, omega, "transducer_impedance", "transducer_capacitance", 2.0)
        params = InstrumentParams(
            M=values[("mechanics", "mass")],
            K=values[("mechanics", "stiffness")],
            H_m=values[("mechanics", "damping")],
            kappa_t=values[("electronics", "coupling")],
            omega_t=omega_t,
            R_l=values[("electronics", "loss_resistance")],
            R_r=values[("electronics", "detection_resistance")],
            R_a=values[("electronics", "amplifier_resistance")],
            C_f=c_f,
            C_t=c_t,
            T_m=values[("noise", "mechanical_temperature")],
            T_a=values[("noise", "amplifier_temperature")],
            T_l=values[("noise", "loss_temperature")],
            T_r=values[("noise", "detection_temperature")],
        )
    except ValueError as exc:
        raise ConfigError(f"{path or '<string>'}: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return RunConfig(params=params, omega=omega, digest=digest, path=path)


def load(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), path=path)


def dumps(cfg: RunConfig) -> str:
    """Canonical text form of a configuration (capacitances spelled out).

    Round trip: loads(dumps(cfg)) reproduces the same parameters to full
    float precision, though the digest tracks the new text.
    """
    p = cfg.params
    lines = [
        "[mechanics]",
        f"mass = {p.M!r} kg",
        f"stiffness = {p.K!r} N/m",
        f"damping = {p.H_m!r} kg/s",
        "",
        "[electronics]",
        f"coupling = {p.kappa_t!r} C/m",
        f"carrier_frequency = {p.omega_t / (2.0 * math.pi)!r} Hz",
        f"loss_resistance = {p.R_l!r} ohm",
        f"detection_resistance = {p.R_r!r} ohm",
        f"amplifier_resistance = {p.R_a!r} ohm",
        f"feedback_capacitance = {p.C_f!r} F",
        f"transducer_capacitance = {p.C_t!r} F",
        "",
        "[noise]",
        f"mechanical_temperature = {p.T_m!r} K",
        f"amplifier_temperature = {p.T_a!r} K",
        f"loss_temperature = {p.T_l!r} K",
        f"detection_temperature = {p.T_r!r} K",
        "",
        "[analysis]",
        f"frequency = {cfg.omega / (2.0 * math.pi)!r} Hz",
        "",
    ]
    return "\n".join(lines)
