"""Instrument parameter set for the cold-damped capacitive accelerometer.

Reactive magnitudes quoted for the instrument (|Z_f|, |Z_t|) are stored
canonically as the underlying capacitances:

    Z_f = 1 / (-i omega_t C_f)            feedback (charge) amplifier
    Z_t = -1 / (2 i Omega C_t)            detuned transducer mode

so both impedances can be evaluated at any analysis frequency.  The
quantum-mechanics sign convention (-i omega t time dependence) is used for
every stored impedance.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class InstrumentParams:
    """Full parameter set of the accelerometer model.

    Each field is a float, or an (N,) array for N parameter sets at once
    (see grid).
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
        positive = {
            "M": self.M, "H_m": self.H_m,
            "omega_t": self.omega_t, "R_l": self.R_l, "R_r": self.R_r,
            "R_a": self.R_a, "C_f": self.C_f, "C_t": self.C_t,
        }
        for name, value in positive.items():
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.kappa_t < 0.0 or not math.isfinite(self.kappa_t):
            raise ValueError(f"kappa_t must be >= 0, got {self.kappa_t}")
        if self.K < 0.0 or not math.isfinite(self.K):
            raise ValueError(f"K must be >= 0, got {self.K}")
        for name in ("T_m", "T_a", "T_l", "T_r"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def z_f(self) -> complex:
        """Feedback impedance Z_f = 1/(-i omega_t C_f), purely imaginary."""
        return 1.0 / (-1j * self.omega_t * self.C_f)

    @property
    def zf_mag(self) -> float:
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
        return self.H_m / self.kappa_t**2

    def delta(self, omega: float) -> float:
        """Reactive-to-dissipative impedance ratio (K/Omega - M Omega)/H_m."""
        if omega == 0.0:
            raise ValueError("delta is undefined at zero frequency")
        return (self.K / omega - self.M * omega) / self.H_m

    def with_(self, **changes) -> "InstrumentParams":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def grid(self, **columns) -> "InstrumentParams":
        """A copy whose named fields hold (N,) arrays, not validated here.

        The closed forms evaluate each array elementwise.  Validate the
        values first: with_ on each set, or on the two ends of a sorted axis.
        """
        if not columns.keys() <= {f.name for f in fields(self)}:
            raise ValueError(f"unknown parameters {sorted(columns)}")
        stacked = copy.copy(self)
        stacked.__dict__.update(columns)
        return stacked
