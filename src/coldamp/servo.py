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

from .constants import HBAR
from .noise import LINE_LABELS
from .params import InstrumentParams
from .sensor import (cancelling_product_sum, coefficients, estimator_coefficients,
                     free_mass_coefficients, max_rel_diff, mechanical_impedance)


def _check_loop_preconditions(p: InstrumentParams) -> None:
    # The loop analysis assumes the detection line loads the charge
    # amplifier only weakly.
    if p.R_r / p.zf_mag >= 1e-2:
        warnings.warn(
            f"R_r/|Z_f| = {p.R_r / p.zf_mag:.2e} is not << 1; "
            "the closed-loop expressions assume a weakly loaded output",
            stacklevel=3,
        )


def gain_for_effective_impedance(p: InstrumentParams, xi_me: complex, omega: float) -> complex:
    """Loop gain producing a prescribed effective impedance at Omega.

    The servo synthesizes xi_me = H_me + i K_me / Omega (kg/s), linear in
    the gain: xi_me = -sqrt(2 omega_t / hbar R_r) 2 kappa_t Z_f G_s / Omega.
    This inverts that relation; the usual cold-damping preset is a purely
    real (dissipative) xi_me.
    """
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    return -xi_me * omega * math.sqrt(HBAR * p.R_r / (2.0 * p.omega_t)) / (2.0 * p.kappa_t * p.z_f)


def cold_damped_velocity(p: InstrumentParams, omega: float) -> np.ndarray:
    """Residual-velocity coefficients of the cold-damped mass, (m/s) per field.

    Valid in the infinite-gain limit; the external-force coefficient is
    zero since the loop pins the mass.  The velocity is
    V_cd = -sqrt(hbar R_r / 2 omega_t) (Omega / 2 kappa_t Z_f)
           * sum_a (lambda_a/G_s) a_in
    over the normalized coefficients lambda_a / G_s.
    """
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    if p.kappa_t == 0.0:
        raise ValueError("cold damping requires a nonzero electromechanical coupling")
    _check_loop_preconditions(p)
    z_f = p.z_f
    z_t = p.z_t(omega)
    root_ar = math.sqrt(p.R_a / p.R_r)
    prefactor = -math.sqrt(HBAR * p.R_r / (2.0 * p.omega_t)) * omega / (2.0 * p.kappa_t * z_f)
    return prefactor * coefficients(
        l2=-2j * z_f / math.sqrt(p.R_l * p.R_r),
        r1=-1.0,
        a1=2.0 * root_ar,
        b1=-2.0 * root_ar,
        a2=-2j * z_f * root_ar * (1.0 / p.R_a - 1.0 / p.R_l - 1.0 / z_t),
        b2=-2j * z_f * root_ar * (1.0 / p.R_a + 1.0 / p.R_l + 1.0 / z_t),
    )


def cold_damped_estimator(p: InstrumentParams, omega: float) -> np.ndarray:
    """Closed-loop force-estimator coefficients in the infinite-gain limit.

    Computed from the force decomposition F_hat = Xi_m (V_fr - V_cd),
    which uses only the free-mass table and the cold-damped velocity:
    an independent route from the open-loop estimator closed forms.
    """
    xi_m = mechanical_impedance(p, omega)
    mu = free_mass_coefficients(p, omega) - xi_m * cold_damped_velocity(p, omega)
    # lambda_a1 = -2 kappa_t^2 sqrt(hbar R_a omega_t / 2) / kappa_t; Re(-Xi_m V_cd,a1) is
    # C_f K - C_f M Omega^2 times that factor.  Where the two cancel, the difference
    # keeps only its rounding error: evaluate the bracket exactly, apply the factor once.
    kt = p.kappa_t
    bracket = cancelling_product_sum((p.C_f, p.K), (-p.C_f, p.M, omega, omega), (-2.0, kt, kt))
    if bracket is not None:
        a1, b1 = LINE_LABELS.index("a1"), LINE_LABELS.index("b1")
        mu[a1] = complex(math.sqrt(HBAR * p.R_a * p.omega_t / 2.0) / kt * bracket, mu[a1].imag)
        mu[b1] = -mu[a1]
    return mu


def sensing_error_identity(p: InstrumentParams, omega: float) -> float:
    """Maximum entry-wise relative deviation from V_cd = -V_se.

    V_cd comes from the infinite-gain velocity table; V_se is the
    Xi_m-proportional part of the open-loop estimator divided by Xi_m.
    Exact in the model, so the residual is at rounding level.
    """
    xi_m = mechanical_impedance(p, omega)
    v_se = (estimator_coefficients(p, omega) - free_mass_coefficients(p, omega)) / xi_m
    return max_rel_diff(-v_se, cold_damped_velocity(p, omega), floor=1e-14)
