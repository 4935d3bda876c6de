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

Each closed form is written once over an ops namespace, which a public
closed form picks once from the types of its inputs (_grid) and passes
to its helpers as their first argument.  A float omega with float
parameters is one point in Python floats, without numpy: a coefficient
table is then a tuple of 9 complex numbers.  An (N,) omega, or
parameters whose fields hold (N,) columns, as p.with_(R_a=array) gives,
is a grid in one numpy call.  Both use real arithmetic with C pow for
squares and C hypot for moduli, so a grid point equals the float
evaluation bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator

from . import ops
from .noise import HBAR, LINE_LABELS, SLOT
from .params import InstrumentParams, Record


def _grid(p: InstrumentParams, omega):
    """The ops namespace for p at omega, and omega checked by check_frequency."""
    xp = ops.of(omega, *vars(p).values())
    return xp, xp.frequencies(omega)


def coefficients(xp, **entries):
    """Complex table in LINE_LABELS order; lines not named are zero.

    A tuple of 9 on ops.FLOAT, else a (9,) or (N, 9) array.
    """
    for label in entries:
        if label not in SLOT:
            raise ValueError(f"unknown line {label!r}; expected one of {', '.join(LINE_LABELS)}")
    return xp.table([entries.get(label, 0j) for label in LINE_LABELS], complex)


def cancelling_product_sum(xp, *products):
    """Where sum_k prod(products[k]) cancels, that sum computed exactly.

    Factors are floats or arrays of one shape.  Returns the mask where
    the float sum is below half its largest term (never where a term is
    nan or infinite; off it a float sum loses at most about a bit) and
    there the exact sum, rounded once (zero elsewhere).
    """
    terms = [math.prod(factors) for factors in products]
    total = functools.reduce(operator.add, terms)      # sum() compensates floats in 3.12+
    cancels = abs(total) < 0.5 * functools.reduce(xp.maximum, map(abs, terms))
    return cancels, xp.exact(cancels, products)


class BudgetPoint(Record):
    """Noise budget of the sensor at one frequency, or over a grid; one CSV row, a Record.

    delta = X_m/H_m is the detuning.  sigma_vfr, sigma_vse and
    sigma_cross are velocity spectral densities in (m/s)^2/Hz, sigma_ff
    the force noise and langevin, back_action, sensing and interference
    its components in N^2/Hz; sigma_cross and interference are signed.
    sigma_ff equals the components' sum and
    H_m^2 (1+delta^2) (sigma_vfr + sigma_vse + sigma_cross) to rounding.
    accel_sensitivity = sqrt(sigma_ff)/M.  Fields are floats, or (N,)
    columns over a grid (arrays, or lists from budget_point's float
    path); len() and indexing give single points, and vars() the columns in CSV order.
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
    return _impedance(p, _grid(p, omega)[1])


def _impedance(p: InstrumentParams, w):
    """mechanical_impedance at a checked w."""
    return p.H_m + 1j * (p.K / w - p.M * w)


def _free_mass(xp, p: InstrumentParams, w):
    """lambda_m and lambda_a1 = -lambda_b1, the free mass's nonzero coefficients (real)."""
    return (-xp.sqrt(2.0 * HBAR * abs(w) * p.H_m),
            -xp.sqrt(2.0 * HBAR * p.omega_t * p.R_a) * p.kappa_t)


def free_mass_coefficients(p: InstrumentParams, omega):
    """Velocity noise coefficients lambda of the free-running mass, a table.

    Only the mechanical Langevin term and the amplifier voltage-noise back
    action survive; the six remaining entries are structural zeros."""
    xp, w = _grid(p, omega)
    lam_m, lam_a1 = _free_mass(xp, p, w)
    return coefficients(xp, m=lam_m, a1=lam_a1, b1=-lam_a1)


def re_mu_a1(xp, p: InstrumentParams, w, rounded):
    """Re mu_a1 at w for both estimator routes; rounded is the calling route's value.

    Re mu_a1 = sqrt(2 hbar R_a omega_t) / (2 kappa_t) times the bracket C_f K
    - C_f M Omega^2 - 2 kappa_t^2, which is summed exactly where it cancels."""
    kt, root_a = p.kappa_t, xp.sqrt(2.0 * HBAR * p.R_a * p.omega_t)
    cancels, bracket = cancelling_product_sum(xp, (p.C_f, p.K), (-p.C_f, p.M, w, w), (-2.0, kt, kt))
    return xp.where(cancels, root_a / (2.0 * kt) * bracket, rounded)


def estimator_coefficients(p: InstrumentParams, omega):
    """Force-estimator noise coefficients mu of the open-loop sensor, a table.

    The mechanical term and the back action are those of the velocity;
    every additional term is proportional to Xi_m = h + i x and
    represents the sensing error added by the electrical detection chain.
    """
    xp, w = _grid(p, omega)
    return _estimator(xp, p, w)


def _estimator(xp, p: InstrumentParams, w):
    """estimator_coefficients at a checked w."""
    if not xp.all(p.kappa_t):
        raise ValueError("the force estimator is undefined without electromechanical coupling")
    h, x, kt, wt = p.H_m, _impedance(p, w).imag, p.kappa_t, p.omega_t
    lam_m, lam_a1 = _free_mass(xp, p, w)
    # mu_a1 = lambda_a1 + t Xi_m / (2 kappa_t omega_t Z_f) with Z_f = i |Z_f|.
    t, e = xp.sqrt(2.0 * HBAR * p.R_a * wt) * w, 2.0 * kt * wt * p.zf_mag
    mu_a1 = re_mu_a1(xp, p, w, lam_a1 + t * x / e) + 1j * (-(t * h) / e)
    # -i Omega sqrt(hbar R_a / 2 omega_t) Xi_m / kappa_t = s_re + i s_im times
    # 1/R_a -+ 1/R_l -+ 1/Z_t for a2 and b2, where 1/Z_t = -i y.
    root = w * xp.sqrt(HBAR * p.R_a / (2.0 * wt))
    s_re, s_im = root * x / kt, -(root * h) / kt
    f_a, f_b, y = 1.0 / p.R_a - 1.0 / p.R_l, 1.0 / p.R_a + 1.0 / p.R_l, 1.0 / p.x_t(w)
    root_r, e_r = -xp.sqrt(HBAR * p.R_r / (2.0 * wt)) * w, 2.0 * kt * p.zf_mag
    root_l = w * xp.sqrt(HBAR / (2.0 * p.R_l * wt))
    return coefficients(
        xp, m=lam_m, a1=mu_a1, b1=-mu_a1,
        a2=(s_re * f_a - s_im * y) + 1j * (s_re * y + s_im * f_a),
        b2=(s_re * f_b + s_im * y) + 1j * (s_im * f_b - s_re * y),
        r1=root_r * x / e_r + 1j * (-(root_r * h) / e_r),
        l2=root_l * x / kt + 1j * (-(root_l * h) / kt),
    )


def coefficient_sum(xp, coeffs, spectra):
    """The quadratic noise sum sum_a |c_a|^2 sigma_a over the tables' lines.

    Line by line in LINE_LABELS order, as for a single point: np.sum,
    np.dot and Python 3.12's sum() add differently and can change the CSV.
    """
    terms = (xp.abs2(c.real, c.imag) * s for c, s in zip(xp.lines(coeffs), xp.lines(spectra)))
    return functools.reduce(operator.add, terms)


def line_spectra(p: InstrumentParams, omega) -> tuple:
    """Input spectra sigma_a, a table of floats, and the k Theta of m, a, l, r.

    A line's input spectrum is k Theta / (hbar |w|): the mechanical line
    at Omega, and either quadrature of an electrical line twice that at
    the carrier omega_t.  k Theta is noise.effective_temperature, bit for bit
    on a grid too (ops' k_theta).
    """
    xp, w = _grid(p, omega)
    return _line_spectra(xp, p, w)


def _line_spectra(xp, p: InstrumentParams, w) -> tuple:
    """line_spectra at a checked w."""
    k_m, k_a, k_l, k_r = (xp.k_theta(t, freq) for t, freq in (
        (p.T_m, w), (p.T_a, p.omega_t), (p.T_l, p.omega_t), (p.T_r, p.omega_t)))
    a, r, l = (2.0 * (k / (HBAR * p.omega_t)) for k in (k_a, k_r, k_l))
    spectra = xp.table([k_m / (HBAR * abs(w)), a, a, a, a, r, r, l, l], float)
    return spectra, (k_m, k_a, k_l, k_r)


def sensor_noise_spectrum(p: InstrumentParams, omega) -> BudgetPoint:
    """Added force noise budget of the open-loop sensor at omega or a grid, unchecked.

    sigma_ff is the direct quadratic sum over the mu coefficients with
    the line_spectra weights; the named components are the closed forms
    for the mechanical Langevin noise, the amplifier back action, the
    sensing error and their signed interference.  The velocity columns
    are those components over |Xi_m|^2.
    """
    xp, w = _grid(p, omega)
    return _noise_spectrum(xp, p, w, _estimator(xp, p, w), _line_spectra(xp, p, w))


def _noise_spectrum(xp, p: InstrumentParams, w, mu, lines) -> BudgetPoint:
    """sensor_noise_spectrum at a checked w, from estimator_coefficients and line_spectra."""
    spectra, (k_theta_m, k_theta_a, k_theta_l, k_theta_r) = lines
    total = coefficient_sum(xp, mu, spectra)

    h_m, x, zf_mag = p.H_m, _impedance(p, w).imag, p.zf_mag
    kt2 = xp.sq(p.kappa_t)
    y_lt = xp.abs2(1.0 / p.R_l, 1.0 / p.x_t(w))

    langevin = 2.0 * h_m * k_theta_m
    back_action = 8.0 * p.R_a * kt2 * k_theta_a
    xi_sq = xp.abs2(h_m, x)
    ratio = xi_sq * xp.sq(w) / (xp.sq(p.omega_t) * kt2)
    sensing = ratio * (
        k_theta_l / p.R_l
        + p.R_r * k_theta_r / (4.0 * xp.sq(zf_mag))
        + 2.0 * p.R_a * k_theta_a * (1.0 / xp.sq(zf_mag) + 1.0 / xp.sq(p.R_a) + y_lt)
    )
    delta = x / h_m
    interference = -8.0 * (p.R_a / zf_mag) * (w / p.omega_t) * delta * h_m * k_theta_a
    return BudgetPoint(*xp.broadcast(
        w, delta, (langevin + back_action) / xi_sq, sensing / xi_sq, interference / xi_sq, total,
        langevin, back_action, sensing, interference, xp.sqrt(total) / p.M))
