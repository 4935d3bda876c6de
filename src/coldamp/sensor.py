"""Open-loop capacitive sensor: closed-form noise coefficients and spectrum.

The proof-mass velocity and the normalized force estimator are linear
combinations of the incoming noise fields,

    Xi_m V_fr = F_ext + sum_a lambda_a a_in
    F_hat     = F_ext + sum_a mu_a a_in

over the nine lines m, a1, a2, b1, b2, r1, r2, l1, l2.  The added force
noise spectrum is Sigma_FF = sum_a |mu_a|^2 sigma_a with the mechanical
spectrum evaluated at the signal frequency Omega and the electrical
quadrature spectra at the carrier omega_t.  sensor_noise_spectrum gives
it with its components and velocity form as one BudgetPoint, the CSV row.

Each closed form evaluates a whole grid (an (N,) omega, or parameters
whose fields hold (N,) columns, as p.with_(R_a=array) gives) in one call,
in real arithmetic with Python's pow for squares, so a grid point equals
the single point bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .noise import LINE_LABELS, SLOT, check_frequency, effective_temperature
from .params import InstrumentParams


def _sq(x):
    return np.float_power(x, 2.0)  # pow, like Python's x ** 2; numpy's x ** 2 is x * x


def _abs2(re, im):
    return _sq(np.hypot(re, im))   # Python's abs(re + i im) ** 2


def _frequencies(omega):
    """omega as a float array (a numpy float for a float), checked by check_frequency."""
    w = np.asarray(omega, dtype=float)
    if not (w.all() and np.isfinite(w).all()):
        for value in w.flat:
            check_frequency(float(value))   # raises at the first bad point
    return w[()]


def _columns(*values) -> list:
    """values broadcast to one grid: (N,) arrays, or floats for a single point."""
    return [c if c.ndim else float(c) for c in np.broadcast_arrays(*values)]


def coefficients(**entries) -> np.ndarray:
    """Complex (9,) or (N, 9) table in LINE_LABELS order; lines not named are zero."""
    table = np.zeros((*np.broadcast(*entries.values()).shape, len(LINE_LABELS)), dtype=complex)
    for label, value in entries.items():
        if label not in SLOT:
            raise ValueError(f"unknown line {label!r}; expected one of {', '.join(LINE_LABELS)}")
        table[..., SLOT[label]] = value
    return table


def cancelling_product_sum(*products) -> tuple[np.ndarray, np.ndarray]:
    """Where sum_k prod(products[k]) cancels, that sum computed exactly.

    Factors are floats or arrays of one shape.  Returns the mask where
    the float sum is below half its largest term (never where a term is
    nan or infinite; off it a float sum loses at most about a bit) and
    there the exact sum, rounded once (zero elsewhere).
    """
    terms = [math.prod(factors) for factors in products]
    cancels = np.asarray(abs(sum(terms)) < 0.5 * functools.reduce(np.maximum, map(abs, terms)))
    exact = np.zeros(cancels.shape)
    if cancels.any():
        at = np.flatnonzero(cancels).tolist()
        columns = [[np.ravel(f)[at].tolist() if np.ndim(f) else [f] * len(at) for f in factors]
                   for factors in products]
        exact.flat[at] = [_exact_sum(point) for point in zip(*(zip(*c) for c in columns))]
    return cancels, exact


def _exact_sum(products) -> float:
    """sum_k prod(products[k]) of finite floats, exact, then rounded once.

    Each float is m / 2^k (as_integer_ratio); the products are summed as
    integers over their largest power of two, and Python's int division
    rounds the quotient correctly.
    """
    terms = []
    for factors in products:
        num, shift = 1, 0
        for f in factors:
            m, d = f.as_integer_ratio()
            num *= m
            shift += d.bit_length() - 1
        terms.append((num, shift))
    top = max(shift for _, shift in terms)
    return sum(num << (top - shift) for num, shift in terms) / (1 << top)


def max_rel_diff(mine: np.ndarray, theirs: np.ndarray, floor: float = 1e-6) -> float:
    """Entry-wise relative deviation of theirs from mine, small-entry floor.

    Entries of mine below floor times its largest (including structural
    zeros) are compared against that largest entry instead of themselves:
    double-precision linear algebra cannot resolve such entries relative
    to their own magnitude.  A stack of rows is judged row by row.
    """
    size = np.abs(mine)
    scale = size.max(axis=-1, keepdims=True)
    denom = np.where(size >= floor * scale, size, scale)
    return float((np.abs(mine - theirs) / denom).max())


@dataclass(frozen=True)
class BudgetPoint:
    """Noise budget of the sensor at one frequency, or over a grid; one CSV row.

    delta = X_m/H_m is the detuning.  sigma_vfr, sigma_vse and
    sigma_cross are velocity spectral densities in (m/s)^2/Hz, sigma_ff
    the force noise and langevin, back_action, sensing and interference
    its components in N^2/Hz; sigma_cross and interference are signed.
    sigma_ff equals the components' sum and
    H_m^2 (1+delta^2) (sigma_vfr + sigma_vse + sigma_cross) to rounding.
    accel_sensitivity = sqrt(sigma_ff)/M.  Fields are floats, or (N,)
    columns over a grid; len() and indexing then give single points.
    """

    omega: float
    delta: float
    sigma_vfr: float
    sigma_vse: float
    sigma_cross: float
    sigma_ff: float
    langevin: float
    back_action: float
    sensing: float
    interference: float
    accel_sensitivity: float

    def __len__(self) -> int:
        return len(self.omega)

    def __getitem__(self, k: int) -> BudgetPoint:
        return BudgetPoint(*(float(column[k]) for column in vars(self).values()))


def mechanical_impedance(p: InstrumentParams, omega):
    """Free-running mechanical impedance H_m - i M Omega + i K / Omega = H_m (1 + i Delta)."""
    w = _frequencies(omega)
    return p.H_m + 1j * (p.K / w - p.M * w)


def free_mass_coefficients(p: InstrumentParams, omega) -> np.ndarray:
    """Velocity noise coefficients lambda of the free-running mass, (9,) or (N, 9).

    Only the mechanical Langevin term and the amplifier voltage-noise back
    action survive; the six remaining entries are structural zeros."""
    w = _frequencies(omega)
    lam_a1 = -np.sqrt(2.0 * HBAR * p.omega_t * p.R_a) * p.kappa_t
    return coefficients(m=-np.sqrt(2.0 * HBAR * abs(w) * p.H_m), a1=lam_a1, b1=-lam_a1)


def re_mu_a1(p: InstrumentParams, w, rounded):
    """Re mu_a1 at w for both estimator routes; rounded is the calling route's value.

    Re mu_a1 = sqrt(2 hbar R_a omega_t) / (2 kappa_t) times the bracket C_f K
    - C_f M Omega^2 - 2 kappa_t^2, which is summed exactly where it cancels."""
    kt, root_a = p.kappa_t, np.sqrt(2.0 * HBAR * p.R_a * p.omega_t)
    cancels, bracket = cancelling_product_sum((p.C_f, p.K), (-p.C_f, p.M, w, w), (-2.0, kt, kt))
    return np.where(cancels, root_a / (2.0 * kt) * bracket, rounded)


def estimator_coefficients(p: InstrumentParams, omega) -> np.ndarray:
    """Force-estimator noise coefficients mu of the open-loop sensor, (9,) or (N, 9).

    The mechanical term and the back action are those of the velocity;
    every additional term is proportional to Xi_m = h + i x and
    represents the sensing error added by the electrical detection chain.
    """
    w = _frequencies(omega)
    if not np.asarray(p.kappa_t).all():
        raise ValueError("the force estimator is undefined without electromechanical coupling")
    h, x, kt, wt = p.H_m, mechanical_impedance(p, w).imag, p.kappa_t, p.omega_t
    lam = free_mass_coefficients(p, w)
    # mu_a1 = lambda_a1 + t Xi_m / (2 kappa_t omega_t Z_f) with Z_f = i |Z_f|.
    t, e = np.sqrt(2.0 * HBAR * p.R_a * wt) * w, 2.0 * kt * wt * p.zf_mag
    mu_a1 = re_mu_a1(p, w, lam[..., SLOT["a1"]].real + t * x / e) + 1j * (-(t * h) / e)
    # -i Omega sqrt(hbar R_a / 2 omega_t) Xi_m / kappa_t = s_re + i s_im times
    # 1/R_a -+ 1/R_l -+ 1/Z_t for a2 and b2, where 1/Z_t = -i y.
    root = w * np.sqrt(HBAR * p.R_a / (2.0 * wt))
    s_re, s_im = root * x / kt, -(root * h) / kt
    f_a, f_b, y = 1.0 / p.R_a - 1.0 / p.R_l, 1.0 / p.R_a + 1.0 / p.R_l, 1.0 / p.x_t(w)
    root_r, e_r = -np.sqrt(HBAR * p.R_r / (2.0 * wt)) * w, 2.0 * kt * p.zf_mag
    root_l = w * np.sqrt(HBAR / (2.0 * p.R_l * wt))
    return coefficients(
        m=lam[..., SLOT["m"]], a1=mu_a1, b1=-mu_a1,
        a2=(s_re * f_a - s_im * y) + 1j * (s_re * y + s_im * f_a),
        b2=(s_re * f_b + s_im * y) + 1j * (s_im * f_b - s_re * y),
        r1=root_r * x / e_r + 1j * (-(root_r * h) / e_r),
        l2=root_l * x / kt + 1j * (-(root_l * h) / kt),
    )


def coefficient_sum(coeffs: np.ndarray, spectra: np.ndarray):
    """The quadratic noise sum sum_a |c_a|^2 sigma_a over the last axis.

    Column by column in LINE_LABELS order, as for a single point: np.sum
    or np.dot pair the additions differently and can change the CSV.
    """
    terms = _abs2(coeffs.real, coeffs.imag) * spectra
    total = terms[..., 0]
    for k in range(1, len(LINE_LABELS)):
        total = total + terms[..., k]
    return total


def line_spectra(p: InstrumentParams, omega) -> tuple:
    """Input spectra sigma_a, a (9,) or (N, 9) table, and the k Theta of m, a, l, r.

    A line's input spectrum is k Theta / (hbar |w|): the mechanical line
    at Omega, and either quadrature of an electrical line twice that at
    the carrier omega_t.  effective_temperature is applied point by point.
    """
    k_theta = np.frompyfunc(effective_temperature, 2, 1)
    k_m, k_a, k_l, k_r = (np.asarray(k_theta(t, w), dtype=float)[()] for t, w in (
        (p.T_m, omega), (p.T_a, p.omega_t), (p.T_l, p.omega_t), (p.T_r, p.omega_t)))
    a, r, l = (2.0 * (k / (HBAR * p.omega_t)) for k in (k_a, k_r, k_l))
    spectra = np.broadcast_arrays(k_m / (HBAR * abs(omega)), a, a, a, a, r, r, l, l)
    return np.stack(spectra, axis=-1), (k_m, k_a, k_l, k_r)


def sensor_noise_spectrum(p: InstrumentParams, omega) -> BudgetPoint:
    """Added force noise budget of the open-loop sensor at omega or a grid, unchecked.

    sigma_ff is the direct quadratic sum over the mu coefficients with
    the line_spectra weights; the named components are the closed forms
    for the mechanical Langevin noise, the amplifier back action, the
    sensing error and their signed interference.  The velocity columns
    are those components over |Xi_m|^2.
    """
    w = _frequencies(omega)
    spectra, (k_theta_m, k_theta_a, k_theta_l, k_theta_r) = line_spectra(p, w)
    total = coefficient_sum(estimator_coefficients(p, w), spectra)

    h_m, x, zf_mag = p.H_m, mechanical_impedance(p, w).imag, p.zf_mag
    kt2 = _sq(p.kappa_t)
    y_lt = _abs2(1.0 / p.R_l, 1.0 / p.x_t(w))

    langevin = 2.0 * h_m * k_theta_m
    back_action = 8.0 * p.R_a * kt2 * k_theta_a
    xi_sq = _abs2(h_m, x)
    ratio = xi_sq * _sq(w) / (_sq(p.omega_t) * kt2)
    sensing = ratio * (
        k_theta_l / p.R_l
        + p.R_r * k_theta_r / (4.0 * _sq(zf_mag))
        + 2.0 * p.R_a * k_theta_a * (1.0 / _sq(zf_mag) + 1.0 / _sq(p.R_a) + y_lt)
    )
    delta = x / h_m
    interference = -8.0 * (p.R_a / zf_mag) * (w / p.omega_t) * delta * h_m * k_theta_a
    return BudgetPoint(*_columns(
        w, delta, (langevin + back_action) / xi_sq, sensing / xi_sq, interference / xi_sq, total,
        langevin, back_action, sensing, interference, np.sqrt(total) / p.M))
