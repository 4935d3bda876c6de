"""Thermal/quantum noise conventions and the physical constants they use.

Each dissipative or active element is modelled as a semi-infinite line with
a characteristic impedance and a physical temperature.  The incoming field
of a line carries a symmetrized, double-sided noise spectrum

    sigma_in(omega) = (1/2) coth(hbar |omega| / 2 kB T)

which interpolates between the vacuum value 1/2 at T = 0 and the classical
value kB T / (hbar |omega|) at high temperature.  Quadrature components of
an electrical carrier at omega_t carry twice that spectrum, evaluated at
the carrier frequency.  HBAR and K_B, the CODATA 2018 exact values, live here.
"""

from __future__ import annotations

import math

from .params import check_frequency

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K

# Canonical port ordering used by every coefficient table and by the
# network oracle.  "m" is the mechanical line; "a"/"b" are the amplifier
# voltage/current noise lines (b enters conjugated); "r" is the detection
# line; "l" the loss line.  Electrical lines carry two quadratures.
LINE_LABELS = ("m", "a1", "a2", "b1", "b2", "r1", "r2", "l1", "l2")
SLOT = {label: k for k, label in enumerate(LINE_LABELS)}  # label -> table column

# Branch edges in x = hbar|w| / 2 kB T: effective_temperature is kB T below X_CLASSICAL, and
# coth(x) is 1 (to 1e-26) above COTH_ONE and 1/x + x/3 (no cancellation) below COTH_SERIES.
COTH_ONE, COTH_SERIES, X_CLASSICAL = 30.0, 1e-8, 1e-300


def effective_temperature(temperature: float, omega: float) -> float:
    """Energy per mode in joules, (hbar|w|/2) coth(x), x = hbar|w| / 2 kB T.

    Reproduces the zero-point energy hbar|w|/2 exactly at T = 0 and the
    classical result kB T at high temperature.
    """
    check_frequency(omega)
    if not temperature >= 0.0:    # nan too
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    zero_point, thermal = 0.5 * HBAR * abs(omega), K_B * temperature
    if thermal == 0.0:    # T = 0, or so small that k_B T underflows
        return zero_point
    x = zero_point / thermal
    if x < X_CLASSICAL:   # coth(x) = 1/x to rounding, and 1/x may overflow
        return thermal
    if x > COTH_ONE:
        return zero_point
    if x < COTH_SERIES:
        return zero_point * (1.0 / x + x / 3.0)
    return zero_point * (1.0 / math.tanh(x))


def effective_temperatures(np, temperature, omega):
    """effective_temperature at each point of the broadcast arrays, bit for bit, on numpy np:
    its branches elementwise in its own order, the function itself once per distinct (T, w)
    in its tanh band, and the function alone on one point or a grid with a T or w it rejects."""
    t, w = np.broadcast_arrays(np.asarray(temperature, float), np.asarray(omega, float))
    if not (t.ndim and w.all() and np.isfinite(w).all() and (t >= 0.0).all()):   # nan T too
        return np.asarray(np.frompyfunc(effective_temperature, 2, 1)(t, w), dtype=float)[()]
    zero_point, thermal = 0.5 * HBAR * np.abs(w), K_B * t
    with np.errstate(all="ignore"):
        x = zero_point / thermal   # +-inf or nan where thermal == 0 (T = +-0 or underflow)
        k = np.select([thermal == 0.0, x < X_CLASSICAL, x > COTH_ONE],
                      [zero_point, thermal, zero_point], zero_point * (1.0 / x + x / 3.0))
    if (band := (x >= COTH_SERIES) & (x <= COTH_ONE)).any():
        pairs, at = np.unique(t[band] + 1j * w[band], return_inverse=True)
        k[band] = np.array([effective_temperature(z.real, z.imag) for z in pairs.tolist()])[at]
    return k
