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

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class InstrumentParams:
    """Full parameter set of the accelerometer model.

    Attributes
    ----------
    M : float
        Proof mass, kg.
    K : float
        Restoring stiffness, N/m (>= 0).
    H_m : float
        Residual viscous damping, kg/s.
    kappa_t : float
        Electromechanical coupling, C/m.
    omega_t : float
        Carrier (pump) angular frequency, rad/s.
    R_l, R_r, R_a : float
        Loss, detection-line and amplifier noise impedances, ohm.
    C_f : float
        Feedback capacitance, F.
    C_t : float
        Transducer mode capacitance, F.
    T_m, T_a, T_l, T_r : float
        Physical temperatures of the mechanical, amplifier, loss and
        detection lines, K.
    """

    M: float
    K: float
    H_m: float
    kappa_t: float
    omega_t: float
    R_l: float
    R_r: float
    R_a: float
    C_f: float
    C_t: float
    T_m: float
    T_a: float
    T_l: float
    T_r: float

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

    def z_t(self, omega: float) -> complex:
        """Transducer impedance Z_t = -1/(2 i Omega C_t)."""
        if omega == 0.0:
            raise ValueError("Z_t diverges at zero frequency")
        return -1.0 / (2j * omega * self.C_t)

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
