"""Open-loop capacitive sensor: closed-form noise coefficients and spectrum.

The proof-mass velocity and the normalized force estimator are linear
combinations of the incoming noise fields,

    Xi_m V_fr = F_ext + sum_a lambda_a a_in
    F_hat     = F_ext + sum_a mu_a a_in

over the nine lines m, a1, a2, b1, b2, r1, r2, l1, l2.  The added force
noise spectrum is Sigma_FF = sum_a |mu_a|^2 sigma_a with the mechanical
spectrum evaluated at the signal frequency Omega and the electrical
quadrature spectra at the carrier omega_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .noise import LINE_LABELS, effective_temperature
from .params import InstrumentParams


def coefficients(**entries: complex) -> np.ndarray:
    """Complex coefficient 9-vector in LINE_LABELS order.

    Lines not named are structural zeros.
    """
    table = np.zeros(len(LINE_LABELS), dtype=complex)
    for label, value in entries.items():
        table[LINE_LABELS.index(label)] = value
    return table


def max_rel_diff(mine: np.ndarray, theirs: np.ndarray, floor: float = 1e-6) -> float:
    """Entry-wise relative deviation of theirs from mine, small-entry floor.

    Entries of mine below floor times its largest (including structural
    zeros) are compared against that largest entry instead of themselves:
    double-precision linear algebra cannot resolve such entries relative
    to their own magnitude, and for zeros the meaningful statement is
    smallness relative to the row.
    """
    size = np.abs(mine)
    scale = size.max()
    denom = np.where(size >= floor * scale, size, scale)
    return float((np.abs(mine - theirs) / denom).max())


@dataclass(frozen=True)
class SpectrumBreakdown:
    """Total added force noise and its named components, N^2/Hz.

    interference is signed; the other components are non-negative.  The
    total always equals the component sum to machine precision.
    """

    total: float
    langevin: float
    back_action: float
    sensing: float
    interference: float


def mechanical_impedance(p: InstrumentParams, omega: float) -> complex:
    """Free-running mechanical impedance H_m - i M Omega + i K / Omega, kg/s."""
    if omega == 0.0:
        raise ValueError("mechanical impedance diverges at zero frequency")
    return p.H_m - 1j * p.M * omega + 1j * p.K / omega


def free_mass_coefficients(p: InstrumentParams, omega: float) -> np.ndarray:
    """Velocity noise coefficients lambda of the free-running mass.

    Only the mechanical Langevin term and the amplifier voltage-noise
    back action survive; the six remaining entries are structural zeros.
    """
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    lam_a1 = -math.sqrt(2.0 * HBAR * p.omega_t * p.R_a) * p.kappa_t
    return coefficients(m=-math.sqrt(2.0 * HBAR * abs(omega) * p.H_m), a1=lam_a1, b1=-lam_a1)


def estimator_coefficients(p: InstrumentParams, omega: float) -> np.ndarray:
    """Force-estimator noise coefficients mu of the open-loop sensor.

    The mechanical term and the back action are those of the velocity;
    every additional term is proportional to Xi_m and represents the
    sensing error added by the electrical detection chain.
    """
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    if p.kappa_t == 0.0:
        raise ValueError("the force estimator is undefined without electromechanical coupling")
    xi_m = mechanical_impedance(p, omega)
    z_f = p.z_f
    z_t = p.z_t(omega)
    kt = p.kappa_t
    wt = p.omega_t

    lam_m, lam_a1 = free_mass_coefficients(p, omega)[:2]      # LINE_LABELS opens m, a1
    mu_a1 = lam_a1 + math.sqrt(2.0 * HBAR * p.R_a * wt) * omega * xi_m / (2.0 * kt * wt * z_f)
    sens_2 = -1j * omega * math.sqrt(HBAR * p.R_a / (2.0 * wt)) * xi_m / kt
    return coefficients(
        m=lam_m,
        a1=mu_a1,
        b1=-mu_a1,
        a2=sens_2 * (1.0 / p.R_a - 1.0 / p.R_l - 1.0 / z_t),
        b2=sens_2 * (1.0 / p.R_a + 1.0 / p.R_l + 1.0 / z_t),
        r1=-math.sqrt(HBAR * p.R_r / (2.0 * wt)) * omega * xi_m / (2.0 * kt * z_f),
        l2=-1j * omega * math.sqrt(HBAR / (2.0 * p.R_l * wt)) * xi_m / kt,
    )


def coefficient_sum(coeffs: np.ndarray, spectra: np.ndarray) -> float:
    """The quadratic noise sum sum_a |c_a|^2 sigma_a.

    Summed left to right over Python floats in LINE_LABELS order, which
    keeps the CSV output bit for bit; np.sum or np.dot pair the additions
    differently and can change the last digit.
    """
    return sum(abs(c) ** 2 * s for c, s in zip(coeffs.tolist(), spectra.tolist()))


def sensor_noise_spectrum(p: InstrumentParams, omega: float) -> SpectrumBreakdown:
    """Added force noise spectrum of the open-loop sensor, decomposed.

    The total is the direct quadratic sum over the mu coefficients; the
    named components are the closed forms for the mechanical Langevin
    noise, the amplifier back action, the sensing error and the signed
    interference between back action and sensing.

    Each line's input spectrum is k Theta / (hbar |w|): the mechanical
    line at Omega, and either quadrature of an electrical line twice
    that at the carrier omega_t.
    """
    mu = estimator_coefficients(p, omega)
    k_theta_m = effective_temperature(p.T_m, omega)
    k_theta_a = effective_temperature(p.T_a, p.omega_t)
    k_theta_l = effective_temperature(p.T_l, p.omega_t)
    k_theta_r = effective_temperature(p.T_r, p.omega_t)

    a, r, l = (2.0 * (k / (HBAR * p.omega_t)) for k in (k_theta_a, k_theta_r, k_theta_l))
    spectra = np.array([k_theta_m / (HBAR * abs(omega)), a, a, a, a, r, r, l, l])
    total = coefficient_sum(mu, spectra)

    h_m = p.H_m
    kt2 = p.kappa_t**2
    zf_mag = p.zf_mag
    y_lt = abs(1.0 / p.R_l + 1.0 / p.z_t(omega)) ** 2

    langevin = 2.0 * h_m * k_theta_m
    back_action = 8.0 * p.R_a * kt2 * k_theta_a
    ratio = abs(mechanical_impedance(p, omega)) ** 2 * omega**2 / (p.omega_t**2 * kt2)
    sensing = ratio * (
        k_theta_l / p.R_l
        + p.R_r * k_theta_r / (4.0 * zf_mag**2)
        + 2.0 * p.R_a * k_theta_a * (1.0 / zf_mag**2 + 1.0 / p.R_a**2 + y_lt)
    )
    delta = p.delta(omega)
    interference = -8.0 * (p.R_a / zf_mag) * (omega / p.omega_t) * delta * h_m * k_theta_a

    return SpectrumBreakdown(
        total=total,
        langevin=langevin,
        back_action=back_action,
        sensing=sensing,
        interference=interference,
    )
