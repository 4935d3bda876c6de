"""Impedance matching of the amplifier to the mechanical damping.

A reduced three-term budget (simplified_budget) has a closed-form
minimum over R_a/R_m (optimal_matching), which a bracketed numerical
search (numerical_matching) cross-checks.  All of it is scalar
arithmetic: this module does not import numpy, so the CLI's optimize
command starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NetworkSolveError
from .noise import effective_temperature
from .params import InstrumentParams

MATCHING_DECADES = 6.0       # half-width of the matching search, log10 units


class MatchingError(NetworkSolveError):
    """The numerical matching minimum sits on the edge of its search bracket.

    A numerical failure like a singular network: the CLI exits with 3.
    """


def simplified_budget(p: InstrumentParams, omega: float) -> float:
    """Three-term force noise valid when electrical losses are negligible.

    Sigma = 2 H_m k Theta_m
          + 8 H_m (R_a/R_m) k Theta_a
          + 2 H_m (1 + Delta^2) (Omega/omega_t)^2 (R_m/R_a) k Theta_a

    keeping only thermal Langevin noise, amplifier back action and the
    detuning-enhanced amplifier sensing noise.  Loss and detection lines
    are dropped, so this is a matching-study tool, not the final number.
    """
    h_m = p.H_m
    delta = p.delta(omega)
    k_theta_m = effective_temperature(p.T_m, omega)
    k_theta_a = effective_temperature(p.T_a, p.omega_t)
    ratio = p.R_a / p.r_m
    return (
        2.0 * h_m * k_theta_m
        + 8.0 * h_m * ratio * k_theta_a
        + 2.0 * h_m * (1.0 + delta**2) * (omega / p.omega_t) ** 2 / ratio * k_theta_a
    )


@dataclass(frozen=True)
class MatchingResult:
    """Optimal amplifier/mechanical resistance matching.

    ratio_opt is (R_a/R_m) at the minimum of the reduced budget,
    sigma_opt the minimum itself, split into the (matching-independent)
    Langevin part and the detection part that the matching minimizes.
    """

    ratio_opt: float
    sigma_opt: float
    langevin_part: float
    detection_part: float


def optimal_matching(p: InstrumentParams, omega: float) -> MatchingResult:
    """Closed-form minimum of the reduced budget over R_a/R_m.

    The back action grows linearly with the ratio while the sensing
    noise falls off as its inverse, so the optimum sits where the two
    are equal: ratio_opt = sqrt(1 + Delta^2)/2 * |Omega|/omega_t.
    """
    h_m = p.H_m
    delta = p.delta(omega)
    k_theta_m = effective_temperature(p.T_m, omega)
    k_theta_a = effective_temperature(p.T_a, p.omega_t)
    ratio_opt = math.sqrt(1.0 + delta**2) / 2.0 * abs(omega) / p.omega_t
    langevin = 2.0 * h_m * k_theta_m
    detection = 8.0 * h_m * math.sqrt(1.0 + delta**2) * abs(omega) / p.omega_t * k_theta_a
    return MatchingResult(
        ratio_opt=ratio_opt,
        sigma_opt=langevin + detection,
        langevin_part=langevin,
        detection_part=detection,
    )


def _golden_minimize(f, a, b, tol=1e-12, max_iter=400):
    """Golden-section search for the minimum of a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol * (abs(a) + abs(b) + 1.0):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def numerical_matching(p: InstrumentParams, omega: float) -> tuple[float, float]:
    """Bracketed minimization of the reduced budget over R_a/R_m.

    Golden-section search on log10(R_a/R_m) within MATCHING_DECADES of
    the closed-form optimum of optimal_matching, which it cross-checks;
    returns the minimizing ratio and the budget value there, and raises
    MatchingError when the minimum lands on the bracket edge.  The
    Langevin term is independent of the matching but dominates the
    budget, which would flatten the minimum below floating-point
    resolution; the search therefore runs at T_m = 0, where that term
    collapses to a negligible zero-point constant, and the reported value
    is evaluated at the found ratio with the true temperature.
    """
    r_m = p.r_m
    cold = p.with_(T_m=0.0)

    def objective(log_ratio: float) -> float:
        return simplified_budget(cold.with_(R_a=r_m * 10.0**log_ratio), omega)

    centre = math.log10(optimal_matching(p, omega).ratio_opt)
    lo, hi = centre - MATCHING_DECADES, centre + MATCHING_DECADES
    best = _golden_minimize(objective, lo, hi)
    if min(best - lo, hi - best) < 1e-6:
        raise MatchingError(
            f"numerical matching did not converge: its minimum lies on the edge of "
            f"log10(R_a/R_m) in [{lo:.3f}, {hi:.3f}] at omega = {omega:g} rad/s",
            omega=omega,
        )
    return 10.0**best, simplified_budget(p.with_(R_a=r_m * 10.0**best), omega)
