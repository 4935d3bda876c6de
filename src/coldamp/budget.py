"""Force-noise budget and parameter sweeps.

The budget is expressed two equivalent ways: as the direct quadratic sum
over the estimator coefficients, and rewritten through velocity spectra

    Sigma_FF = H_m^2 (1 + Delta^2) (sigma_vfr + sigma_vse + sigma_cross)

where sigma_vfr is the free-running velocity noise, sigma_vse the
sensing-error noise and sigma_cross their signed interference.  All force
spectra are double-sided symmetrized densities in N^2/Hz; acceleration
sensitivity is sqrt(Sigma_FF)/M.

The impedance-matching study lives in the numpy-free matching module;
its names are re-exported here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .matching import (
    MATCHING_DECADES,
    MatchingError,
    MatchingResult,
    _golden_minimize,
    numerical_matching,
    optimal_matching,
    simplified_budget,
)
from .params import InstrumentParams
from .sensor import SpectrumBreakdown, mechanical_impedance, sensor_noise_spectrum

SIDEBAND_RATIO_FLOOR = 1e3
_SWEEP_AXES = tuple(f.name for f in fields(InstrumentParams))


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
