"""Impedance matching of the amplifier to the mechanical damping.

A reduced three-term budget (simplified_budget) has a closed-form
minimum over R_a/R_m (optimal_matching), which a bracketed numerical
search (numerical_matching) cross-checks.  All of it is scalar
arithmetic: this module does not import numpy, so the CLI's optimize
command starts without it.
"""

from __future__ import annotations

import math

from .errors import NetworkSolveError
from .noise import effective_temperature
from .params import InstrumentParams, Record

MATCHING_DECADES = 6.0       # half-width of the matching search, log10 units
_Terms = tuple[float, float, float, float]   # H_m, 1 + Delta^2, k Theta_m, k Theta_a


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
    R_a/R_m and Sigma must come out positive and finite, or it is a ValueError.
    """
    r_m = p.r_m
    ratio = p.R_a / r_m if r_m else math.inf      # H_m/kappa_t^2 may underflow to 0
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"R_a/R_m leaves the float range: R_a = {p.R_a}, R_m = {r_m}")
    sigma = _reduced_budget(_reduced_terms(p, omega), omega / p.omega_t, ratio)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"the simplified budget leaves the float range: Sigma = {sigma}")
    return sigma


def _reduced_budget(terms: _Terms, s: float, ratio: float) -> float:
    """simplified_budget over the _reduced_terms given, at s = Omega/omega_t and R_a/R_m = ratio.

    (Omega/omega_t)^2 / ratio is s / ratio * s: near the optimum s / ratio
    is of order one, where s^2 alone may leave the float range."""
    h_m, detuning, k_theta_m, k_theta_a = terms
    return (
        2.0 * h_m * k_theta_m
        + 8.0 * h_m * ratio * k_theta_a
        + 2.0 * h_m * detuning * (s / ratio * s) * k_theta_a
    )


def _reduced_terms(p: InstrumentParams, omega: float) -> _Terms:
    """H_m, 1 + Delta^2 (a ValueError if it overflows), k Theta_m and k Theta_a."""
    if p.kappa_t == 0.0:
        raise ValueError("impedance matching needs electromechanical coupling; kappa_t is 0")
    delta = p.delta(omega)
    try:
        detuning = 1.0 + delta**2
    except OverflowError:
        raise ValueError(f"1 + Delta^2 leaves the float range: Delta = {delta:.6g}") from None
    return (p.H_m, detuning, effective_temperature(p.T_m, omega),
            effective_temperature(p.T_a, p.omega_t))


class MatchingResult(Record):
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
    are equal: ratio_opt = sqrt(1 + Delta^2)/2 * |Omega|/omega_t.  Each
    field must come out positive and finite, or it is a ValueError.
    """
    return _optimum(_reduced_terms(p, omega), omega, p.omega_t)


def _optimum(terms: _Terms, omega: float, omega_t: float) -> MatchingResult:
    """optimal_matching over the _reduced_terms given."""
    h_m, detuning, k_theta_m, k_theta_a = terms
    ratio_opt = math.sqrt(detuning) / 2.0 * abs(omega) / omega_t
    langevin = 2.0 * h_m * k_theta_m
    detection = 8.0 * h_m * math.sqrt(detuning) * abs(omega) / omega_t * k_theta_a
    result = MatchingResult(ratio_opt, langevin + detection, langevin, detection)
    for name, value in vars(result).items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"the matching optimum leaves the float range: {name} = {value}")
    return result


def _golden_minimize(f, a, b):
    """Golden-section minimum of a unimodal f on [a, b], to 1e-12 of its scale."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(400):
        if abs(b - a) < 1e-12 * (abs(a) + abs(b) + 1.0):
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
    resolution; the search therefore runs with k Theta_m at T_m = 0, where
    that term collapses to a negligible zero-point constant, and the
    reported value is evaluated at the found ratio with the true
    temperature.  It works on the ratio alone: R_m = H_m/kappa_t^2 may
    leave the float range.
    """
    terms = _reduced_terms(p, omega)
    cold = (*terms[:2], effective_temperature(0.0, omega), terms[3])    # k Theta_m at T_m = 0
    s = omega / p.omega_t

    def objective(log_ratio: float) -> float:
        return _reduced_budget(cold, s, 10.0**log_ratio)

    centre = math.log10(_optimum(terms, omega, p.omega_t).ratio_opt)
    lo, hi = centre - MATCHING_DECADES, centre + MATCHING_DECADES
    if not -307.0 < lo < hi < 308.0:     # 10**log_ratio would be subnormal or overflow
        raise ValueError(f"the matching search leaves the float range: "
                         f"log10(R_a/R_m) in [{lo:.3f}, {hi:.3f}]")
    best = _golden_minimize(objective, lo, hi)
    if min(best - lo, hi - best) < 1e-6:
        raise MatchingError(
            f"numerical matching did not converge: its minimum lies on the edge of "
            f"log10(R_a/R_m) in [{lo:.3f}, {hi:.3f}] at omega = {omega:g} rad/s",
            omega=omega,
        )
    return 10.0**best, _reduced_budget(terms, s, 10.0**best)
