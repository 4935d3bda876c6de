"""Force-noise budget and parameter sweeps.

budget_point is sensor.sensor_noise_spectrum with its checks: every
column of the BudgetPoint stays in the float range, and a carrier too
close to the signal frequency warns.  The record holds the direct
quadratic sum over the estimator coefficients, its named components,
and the velocity spectra of

    Sigma_FF = H_m^2 (1 + Delta^2) (sigma_vfr + sigma_vse + sigma_cross)

where sigma_vfr is the free-running velocity noise, sigma_vse the
sensing-error noise and sigma_cross their signed interference.  All force
spectra are double-sided symmetrized densities in N^2/Hz; acceleration
sensitivity is sqrt(Sigma_FF)/M.  Matching is in the matching module.
"""

from __future__ import annotations

import warnings
from dataclasses import fields

import numpy as np

from .matching import numerical_matching  # bench/tracer.py traces it under this name
from .params import InstrumentParams
from .sensor import BudgetPoint, _frequencies, sensor_noise_spectrum

SIDEBAND_RATIO_FLOOR = 1e3
_SWEEP_AXES = tuple(f.name for f in fields(InstrumentParams))


def budget_point(p: InstrumentParams, omega) -> BudgetPoint:
    """Full noise budget at mechanical frequency omega (rad/s).

    omega is a float or an (N,) array, and p may hold (N,) parameter
    columns (p.with_(R_a=array)): a whole grid in one call.  A column
    leaving the float range is a ValueError naming the first such field;
    one warning covers every point whose carrier-to-signal ratio is not
    above SIDEBAND_RATIO_FLOOR.
    """
    w = _frequencies(omega)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        point, ratio = sensor_noise_spectrum(p, w), p.omega_t / abs(w)
    for name, column in vars(point).items():
        if not np.isfinite(column).all():
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
