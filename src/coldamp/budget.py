"""Force-noise budget and parameter sweeps.

The budget is expressed two equivalent ways: as the direct quadratic sum
over the estimator coefficients, and rewritten through velocity spectra

    Sigma_FF = H_m^2 (1 + Delta^2) (sigma_vfr + sigma_vse + sigma_cross)

where sigma_vfr is the free-running velocity noise, sigma_vse the
sensing-error noise and sigma_cross their signed interference.  All force
spectra are double-sided symmetrized densities in N^2/Hz; acceleration
sensitivity is sqrt(Sigma_FF)/M.  The names of the numpy-free matching
module are re-exported here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .matching import (MatchingError, MatchingResult, numerical_matching, optimal_matching,
                       simplified_budget)
from .noise import check_frequency
from .params import InstrumentParams
from .sensor import (SpectrumBreakdown, _abs2, _columns, _frequencies, mechanical_impedance,
                     sensor_noise_spectrum)

SIDEBAND_RATIO_FLOOR = 1e3
_SWEEP_AXES = tuple(f.name for f in fields(InstrumentParams))


@dataclass(frozen=True)
class BudgetPoint:
    """Noise budget of the sensor at one frequency, or over a grid.

    sigma_vfr, sigma_vse and sigma_cross are velocity spectral densities
    in (m/s)^2/Hz; sigma_cross is signed.  sigma_ff is their force-domain
    total plus nothing else: the identity
    sigma_ff = H_m^2 (1+delta^2) (sigma_vfr + sigma_vse + sigma_cross)
    holds to rounding.  Fields are floats, or (N,) columns over a grid;
    len() and indexing then give single-point budgets.
    """

    omega: float
    sigma_vfr: float
    sigma_vse: float
    sigma_cross: float
    sigma_ff: float
    accel_sensitivity: float
    delta: float
    breakdown: SpectrumBreakdown

    def __len__(self) -> int:
        return len(self.omega)

    def __getitem__(self, k: int) -> BudgetPoint:
        b = self.breakdown
        return BudgetPoint(*(float(getattr(self, f.name)[k]) for f in fields(self)[:-1]),
                           SpectrumBreakdown(*(float(getattr(b, f.name)[k]) for f in fields(b))))


def budget_point(p: InstrumentParams, omega) -> BudgetPoint:
    """Full noise budget at mechanical frequency omega (rad/s).

    omega is a float or an (N,) array, and p may hold (N,) parameter
    columns (InstrumentParams.grid): a whole grid in one call.  One
    warning covers every point whose carrier-to-signal ratio is not
    above SIDEBAND_RATIO_FLOOR.
    """
    w = _frequencies(omega)
    ratio = p.omega_t / abs(w)
    if np.any(ratio <= SIDEBAND_RATIO_FLOOR):
        warnings.warn(f"carrier-to-signal frequency ratio {np.min(ratio):.3g} is not above "
                      f"{SIDEBAND_RATIO_FLOOR:g}; the sideband-resolved model becomes inaccurate",
                      stacklevel=2)
    b, xi = sensor_noise_spectrum(p, w), mechanical_impedance(p, w)
    xi_sq = _abs2(xi.real, xi.imag)
    return BudgetPoint(*_columns(w, (b.langevin + b.back_action) / xi_sq, b.sensing / xi_sq,
                                 b.interference / xi_sq, b.total, np.sqrt(b.total) / p.M,
                                 xi.imag / p.H_m), breakdown=b)


def sweep(p: InstrumentParams, axis: str, grid, omega: float | None = None) -> BudgetPoint:
    """Budget over a grid along one axis, as one budget_point call.

    axis is "frequency" (grid in rad/s) or the name of a parameter field
    such as "R_a" (then omega fixes the analysis frequency).  The grid
    must be nonempty and strictly increasing; the (N,) columns follow
    it.  Each InstrumentParams rule is an interval, so checking the ends
    checks every point (inside a frequency grid only a zero can fail).
    An error names the first failing point.
    """
    values = [float(v) for v in grid]
    if not values:
        raise ValueError("sweep grid must be nonempty")
    if not all(b > a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if axis == "frequency":
        check, q, w = check_frequency, p, np.array(values)
        ends = [values[0], *(v for v in values if v == 0.0), values[-1]]
    elif axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'frequency' or one of "
                         f"{', '.join(_SWEEP_AXES)}")
    elif omega is None:
        raise ValueError("parameter sweeps need an analysis frequency")
    else:
        check, q, w = (lambda v: p.with_(**{axis: v})), p.grid(**{axis: np.array(values)}), omega
        ends = [values[0], values[-1]]
    for value in ends:
        try:
            check(value)
        except ValueError as exc:
            raise ValueError(f"sweep failed at {axis} = {value!r}: {exc}") from exc
    try:
        return budget_point(q, w)
    except ValueError as exc:  # past the checks: fails at every point, or first (kappa_t = 0)
        raise ValueError(f"sweep failed at {axis} = {values[0]!r}: {exc}") from exc
