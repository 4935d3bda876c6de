"""Force-noise budget and impedance-matching optimization.

The budget is expressed two equivalent ways: as the direct quadratic sum
over the estimator coefficients, and rewritten through velocity spectra

    Sigma_FF = H_m^2 (1 + Delta^2) (sigma_vfr + sigma_vse + sigma_cross)

where sigma_vfr is the free-running velocity noise, sigma_vse the
sensing-error noise and sigma_cross their signed interference.  All force
spectra are double-sided symmetrized densities in N^2/Hz; acceleration
sensitivity is sqrt(Sigma_FF)/M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .network import NetworkSolveError
from .noise import effective_temperature
from .params import InstrumentParams
from .sensor import SpectrumBreakdown, mechanical_impedance, sensor_noise_spectrum

SIDEBAND_RATIO_FLOOR = 1e3
MATCHING_DECADES = 6.0       # half-width of the matching search, log10 units
_SWEEP_AXES = tuple(f.name for f in fields(InstrumentParams))


class MatchingError(NetworkSolveError):
    """The numerical matching minimum sits on the edge of its search bracket.

    A numerical failure like a singular network: the CLI exits with 3.
    """


@dataclass(frozen=True)
class BudgetPoint:
    """Noise budget of the sensor at a single frequency.

    sigma_vfr, sigma_vse and sigma_cross are velocity spectral densities
    in (m/s)^2/Hz; sigma_cross is signed.  sigma_ff is their force-domain
    total plus nothing else: the identity
    sigma_ff = H_m^2 (1+delta^2) (sigma_vfr + sigma_vse + sigma_cross)
    holds to rounding.
    """

    omega: float
    sigma_vfr: float
    sigma_vse: float
    sigma_cross: float
    sigma_ff: float
    accel_sensitivity: float
    delta: float
    breakdown: SpectrumBreakdown


def budget_point(p: InstrumentParams, omega: float) -> BudgetPoint:
    """Full noise budget at mechanical frequency omega (rad/s)."""
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    if p.omega_t / abs(omega) <= SIDEBAND_RATIO_FLOOR:
        warnings.warn(
            f"carrier-to-signal frequency ratio {p.omega_t / abs(omega):.3g} "
            f"is not above {SIDEBAND_RATIO_FLOOR:g}; the sideband-resolved "
            "model becomes inaccurate",
            stacklevel=2,
        )
    breakdown = sensor_noise_spectrum(p, omega)
    xi_sq = abs(mechanical_impedance(p, omega)) ** 2
    return BudgetPoint(
        omega=omega,
        sigma_vfr=(breakdown.langevin + breakdown.back_action) / xi_sq,
        sigma_vse=breakdown.sensing / xi_sq,
        sigma_cross=breakdown.interference / xi_sq,
        sigma_ff=breakdown.total,
        accel_sensitivity=math.sqrt(breakdown.total) / p.M,
        delta=p.delta(omega),
        breakdown=breakdown,
    )


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


def sweep(p: InstrumentParams, axis: str, grid, omega: float | None = None) -> list[BudgetPoint]:
    """Budget at each point of a grid along one axis.

    axis is "frequency" (grid in rad/s) or the name of a parameter field
    such as "R_a" (then omega fixes the analysis frequency).  The grid
    must be nonempty and strictly increasing; results follow grid order.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")

    if axis == "frequency":
        tasks = [(p, w) for w in grid]
    else:
        if axis not in _SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}; expected 'frequency' or one of "
                             f"{', '.join(_SWEEP_AXES)}")
        if omega is None:
            raise ValueError("parameter sweeps need an analysis frequency")
        tasks = [(p.with_(**{axis: value}), omega) for value in grid]

    points = []
    for (params, w), value in zip(tasks, grid):
        try:
            points.append(budget_point(params, w))
        except ValueError as exc:
            raise ValueError(f"sweep failed at {axis} = {value!r}: {exc}") from exc
    return points
