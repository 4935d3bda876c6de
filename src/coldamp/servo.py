"""Cold-damped (closed-loop) instrument in the infinite-gain limit.

The servo feeds the detected signal back as a force on the proof mass,
synthesizing an effective mechanical impedance Xi_me proportional to the
loop gain G_s.  For |G_s| -> infinity the residual mass velocity becomes
the (sign-reversed) sensing error and the force estimator coefficients
coincide entry by entry with the open-loop ones.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .noise import HBAR, SLOT
from .ops import numpy_ops
from .params import InstrumentParams, check_frequency
from .sensor import coefficients, free_mass_coefficients, mechanical_impedance, re_mu_a1


class WeakLoadingWarning(UserWarning):
    """R_r/|Z_f| is not << 1, which the closed-loop expressions assume."""


def check_loop(p: InstrumentParams) -> None:
    """The loop's preconditions: a ValueError without coupling, and a warning, attributed
    to the caller's caller, where the amplifier output is not weakly loaded."""
    if not np.asarray(p.kappa_t).all():
        raise ValueError("cold damping requires a nonzero electromechanical coupling")
    with np.errstate(divide="ignore"):
        ratio = np.divide(p.R_r, p.zf_mag)      # inf where |Z_f| = 1/(omega_t C_f) reads 0
    if np.any(ratio >= 1e-2):
        warnings.warn(f"R_r/|Z_f| = {np.max(ratio):.2e} is not << 1; the closed-loop "
                      "expressions assume a weakly loaded output", WeakLoadingWarning,
                      stacklevel=3)


def gain_for_effective_impedance(p: InstrumentParams, xi_me: complex, omega: float) -> complex:
    """Loop gain producing a prescribed effective impedance at Omega.

    The servo synthesizes xi_me = H_me + i K_me / Omega (kg/s), linear in
    the gain: xi_me = -sqrt(2 omega_t / hbar R_r) 2 kappa_t Z_f G_s / Omega,
    with Z_f = i |Z_f|.  This inverts that relation; the usual
    cold-damping preset is a purely real (dissipative) xi_me.
    """
    check_frequency(omega)
    root = math.sqrt(HBAR * p.R_r / (2.0 * p.omega_t))
    return -xi_me * omega * root / (2j * p.kappa_t * p.zf_mag)


def cold_damped_velocity(p: InstrumentParams, omega) -> np.ndarray:
    """Residual-velocity coefficients of the cold-damped mass, (m/s) per field.

    A (9,) or (N, 9) table, valid in the infinite-gain limit; the
    external-force coefficient is zero since the loop pins the mass.
    V_cd = -sqrt(hbar R_r / 2 omega_t) (Omega / 2 kappa_t Z_f)
           * sum_a (lambda_a/G_s) a_in, and with Z_f = i |Z_f| the
    prefactor is -i q for a real q.
    """
    w = numpy_ops().frequencies(omega)
    check_loop(p)
    return _velocity(p, w)


def _velocity(p: InstrumentParams, w) -> np.ndarray:
    """cold_damped_velocity at checked frequencies w, without check_loop."""
    zf = p.zf_mag
    q = -np.sqrt(HBAR * p.R_r / (2.0 * p.omega_t)) * w / (2.0 * p.kappa_t * zf)
    root_ar = np.sqrt(p.R_a / p.R_r)
    # -2i Z_f sqrt(R_a/R_r) (1/R_a -+ 1/R_l -+ 1/Z_t) = g (f + i y) for a2, g (f - i y) for b2
    g, y = 2.0 * zf * root_ar, 1.0 / p.x_t(w)
    f_a, f_b = 1.0 / p.R_a - 1.0 / p.R_l, 1.0 / p.R_a + 1.0 / p.R_l
    return coefficients(
        numpy_ops(), l2=-1j * q * (2.0 * zf / np.sqrt(p.R_l * p.R_r)),
        r1=1j * q,
        a1=-1j * q * (2.0 * root_ar),
        b1=1j * q * (2.0 * root_ar),
        a2=q * (g * y) - 1j * q * (g * f_a),
        b2=-q * (g * y) - 1j * q * (g * f_b),
    )


def cold_damped_estimator(p: InstrumentParams, omega) -> np.ndarray:
    """Closed-loop force-estimator coefficients in the infinite-gain limit.

    A (9,) table, or (N, 9) over a grid.  Computed from the force
    decomposition F_hat = Xi_m (V_fr - V_cd), which uses only the
    free-mass table and the cold-damped velocity: an independent route
    from the open-loop estimator closed forms, except that Re mu_a1 is
    shared (sensor.re_mu_a1) where its bracket cancels.
    """
    w = numpy_ops().frequencies(omega)
    check_loop(p)     # here, so that its warning points at this function's caller
    v = _velocity(p, w)
    lam = free_mass_coefficients(p, w)
    xi = np.asarray(mechanical_impedance(p, w))[..., None]
    # mu = lambda - Xi_m V_cd, in real arithmetic
    mu = (lam.real - (xi.real * v.real - xi.imag * v.imag)) \
        + 1j * (lam.imag - (xi.real * v.imag + xi.imag * v.real))
    a1 = mu[..., SLOT["a1"]]
    a1.real = re_mu_a1(numpy_ops(), p, w, a1.real)
    mu[..., SLOT["b1"]] = -a1
    return mu

