"""Instrument parameter set for the cold-damped capacitive accelerometer.

Reactive magnitudes quoted for the instrument (|Z_f|, |Z_t|) are stored
canonically as the underlying capacitances:

    Z_f = 1 / (-i omega_t C_f) = i zf_mag     feedback (charge) amplifier
    Z_t = -1 / (2 i Omega C_t) = i x_t        detuned transducer mode

so both impedances can be evaluated at any analysis frequency.  The
quantum-mechanics sign convention (-i omega t time dependence) is used for
every stored impedance; both are purely imaginary, carried as zf_mag and x_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .noise import check_frequency

# Every field must be finite; these may be zero, the others must be strictly positive.
_MAY_BE_ZERO = frozenset({"K", "kappa_t", "T_m", "T_a", "T_l", "T_r"})


def _broken_rule(name: str, value) -> str | None:
    """The error for value in field name, or None when the value is legal."""
    if not math.isfinite(value):
        return f"{name} must be finite, got {value}"
    if name in _MAY_BE_ZERO:
        return None if value >= 0.0 else f"{name} must be >= 0, got {value}"
    return None if value > 0.0 else f"{name} must be strictly positive, got {value}"


@dataclass(frozen=True)
class InstrumentParams:
    """Full parameter set of the accelerometer model.

    Each field is a float, or an (N,) array for N parameter sets at once
    (with_(R_a=array)).  Construction checks every point: each field is
    finite, and strictly positive except K, kappa_t and the temperatures,
    which may be zero.  An error names the first failing value.
    """

    M: float         # proof mass, kg
    K: float         # restoring stiffness, N/m (>= 0)
    H_m: float       # residual viscous damping, kg/s
    kappa_t: float   # electromechanical coupling, C/m
    omega_t: float   # carrier (pump) angular frequency, rad/s
    R_l: float       # loss-line noise impedance, ohm
    R_r: float       # detection-line noise impedance, ohm
    R_a: float       # amplifier noise impedance, ohm
    C_f: float       # feedback capacitance, F
    C_t: float       # transducer mode capacitance, F
    T_m: float       # mechanical-line temperature, K
    T_a: float       # amplifier temperature, K
    T_l: float       # loss-line temperature, K
    T_r: float       # detection-line temperature, K

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not getattr(value, "ndim", 0):
                error = _broken_rule(name, value)
            elif _broken_rule(name, value.min()) or _broken_rule(name, value.max()):
                # an (N,) column breaks a rule at its extremes if at any point
                error = next(filter(None, (_broken_rule(name, v) for v in value.tolist())))
            else:
                continue
            if error:
                raise ValueError(error)

    @property
    def zf_mag(self) -> float:
        """|Z_f| = 1/(omega_t C_f), ohm, with Z_f = i |Z_f|."""
        return 1.0 / (self.omega_t * self.C_f)

    def x_t(self, omega):
        """Transducer reactance x_t = 1/(2 Omega C_t), ohm, with Z_t = i x_t; elementwise."""
        return 1.0 / (2.0 * omega * self.C_t)

    @property
    def r_m(self) -> float:
        """Mechanical damping as an equivalent electrical resistance."""
        if self.kappa_t == 0.0:
            raise ValueError("R_m = H_m/kappa_t^2 is undefined without electromechanical "
                             "coupling; kappa_t is 0")
        try:
            return self.H_m / self.kappa_t**2
        except (ZeroDivisionError, OverflowError):    # kappa_t^2 under- or overflows
            raise ValueError(f"R_m = H_m/kappa_t^2 leaves the float range: "
                             f"kappa_t = {self.kappa_t}") from None

    def delta(self, omega: float) -> float:
        """Reactive-to-dissipative impedance ratio (K/Omega - M Omega)/H_m."""
        check_frequency(omega)
        return (self.K / omega - self.M * omega) / self.H_m

    def with_(self, **changes) -> "InstrumentParams":
        """A copy with the given fields replaced, floats or (N,) arrays; validation re-runs."""
        return replace(self, **changes)
