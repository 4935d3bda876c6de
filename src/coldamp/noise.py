"""Thermal/quantum noise conventions shared by every other module.

Each dissipative or active element is modelled as a semi-infinite line with
a characteristic impedance and a physical temperature.  The incoming field
of a line carries a symmetrized, double-sided noise spectrum

    sigma_in(omega) = (1/2) coth(hbar |omega| / 2 kB T)

which interpolates between the vacuum value 1/2 at T = 0 and the classical
value kB T / (hbar |omega|) at high temperature.  Quadrature components of
an electrical carrier at omega_t carry twice that spectrum, evaluated at
the carrier frequency.
"""

from __future__ import annotations

import math

from .constants import HBAR, K_B

# Canonical port ordering used by every coefficient table and by the
# network oracle.  "m" is the mechanical line; "a"/"b" are the amplifier
# voltage/current noise lines (b enters conjugated); "r" is the detection
# line; "l" the loss line.  Electrical lines carry two quadratures.
LINE_LABELS = ("m", "a1", "a2", "b1", "b2", "r1", "r2", "l1", "l2")
SLOT = {label: k for k, label in enumerate(LINE_LABELS)}  # label -> table column


def coth(x: float) -> float:
    """coth(x) for x > 0, stable at both ends of the range.

    Above x = 30 the result is 1 to better than 1e-26 relative; below
    x = 1e-8 the Laurent expansion 1/x + x/3 avoids cancellation.
    """
    if x <= 0.0:
        raise ValueError(f"coth argument must be positive, got {x}")
    if x > 30.0:
        return 1.0
    if x < 1e-8:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def check_frequency(omega: float) -> None:
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    if not math.isfinite(omega):
        raise ValueError(f"frequency must be finite, got {omega}")


def effective_temperature(temperature: float, omega: float) -> float:
    """Energy per mode in joules, (hbar|w|/2) coth(hbar|w| / 2 kB T).

    Reproduces the zero-point energy hbar|w|/2 exactly at T = 0 and the
    classical result kB T at high temperature.
    """
    check_frequency(omega)
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    zero_point = 0.5 * HBAR * abs(omega)
    if temperature == 0.0:
        return zero_point
    return zero_point * coth(zero_point / (K_B * temperature))
