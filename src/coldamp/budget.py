"""Force-noise budget and parameter sweeps.

The budget is expressed two equivalent ways: as the direct quadratic sum
over the estimator coefficients, and rewritten through velocity spectra

    Sigma_FF = H_m^2 (1 + Delta^2) (sigma_vfr + sigma_vse + sigma_cross)

where sigma_vfr is the free-running velocity noise, sigma_vse the
sensing-error noise and sigma_cross their signed interference.  All force
spectra are double-sided symmetrized densities in N^2/Hz; acceleration
sensitivity is sqrt(Sigma_FF)/M.  Matching is in the matching module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .matching import numerical_matching  # bench/tracer.py traces it under this name
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
    columns (p.with_(R_a=array)): a whole grid in one call.  A column
    leaving the float range is a ValueError; one warning covers every
    point whose carrier-to-signal ratio is not above SIDEBAND_RATIO_FLOOR.
    """
    w = _frequencies(omega)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b, xi = sensor_noise_spectrum(p, w), mechanical_impedance(p, w)
        xi_sq, ratio = _abs2(xi.real, xi.imag), p.omega_t / abs(w)
        point = BudgetPoint(*_columns(w, (b.langevin + b.back_action) / xi_sq, b.sensing / xi_sq,
                                      b.interference / xi_sq, b.total, np.sqrt(b.total) / p.M,
                                      xi.imag / p.H_m), breakdown=b)
    for name, column in {**vars(point), **vars(b)}.items():
        if name != "breakdown" and not np.isfinite(column).all():
            value = float(np.extract(~np.isfinite(column), column)[0])
            raise ValueError(f"the budget leaves the float range: {name} = {value}")
    if np.any(ratio <= SIDEBAND_RATIO_FLOOR):
        warnings.warn(f"carrier-to-signal frequency ratio {np.min(ratio):.3g} is not above "
                      f"{SIDEBAND_RATIO_FLOOR:g}; the sideband-resolved model becomes inaccurate",
                      stacklevel=2)
    return point


def sweep(p: InstrumentParams, axis: str, grid, omega: float | None = None) -> BudgetPoint:
    """Budget over a grid along one axis, as one budget_point call.

    axis is "frequency" (grid in rad/s) or the name of a parameter field
    such as "R_a" (then omega fixes the analysis frequency, and the grid
    is the field's (N,) column, validated point by point by
    InstrumentParams).  The grid must be nonempty and strictly
    increasing; the (N,) columns follow it.  An error names the first
    point that fails on its own, unless every point fails.
    """
    values = [float(v) for v in grid]
    if not values:
        raise ValueError("sweep grid must be nonempty")
    if not all(b > a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if axis == "frequency":
        def at(value):
            return budget_point(p, value)
    elif axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'frequency' or one of "
                         f"{', '.join(_SWEEP_AXES)}")
    elif omega is None:
        raise ValueError("parameter sweeps need an analysis frequency")
    else:
        def at(value):
            return budget_point(p.with_(**{axis: value}), omega)
    try:
        return at(np.array(values))
    except ValueError as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = next((v for v in values if _fails(at, v)), None)
            every = first == values[0] and all(_fails(at, v) for v in values[1:])
        if first is None or every:
            raise    # no one point's failure: the grid's own error says why
        raise ValueError(f"sweep failed at {axis} = {first!r}: {exc}") from exc


def _fails(at, value: float) -> bool:
    try:
        at(value)
    except ValueError:
        return True
    return False
