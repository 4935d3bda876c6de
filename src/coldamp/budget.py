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

import math
import operator
import warnings

from . import ops
from .matching import numerical_matching  # bench/tracer.py traces it under this name
from .params import InstrumentParams
from .sensor import BudgetPoint, sensor_noise_spectrum

SIDEBAND_RATIO_FLOOR = 1e3


def budget_point(p: InstrumentParams, omega) -> BudgetPoint:
    """Full noise budget at mechanical frequency omega (rad/s).

    omega is a float, a list of floats or an (N,) array, and p may hold
    (N,) parameter columns (p.with_(R_a=array)): a whole grid in one call.
    Floats, and lists of floats, with float parameters take the float
    path: point by point, without numpy, a list giving list columns.
    Where Python raises an ArithmeticError, numpy, with numpy parameters,
    evaluates the call again and gives inf or nan.  A column leaving the
    float range is a ValueError naming the first such field; one warning
    covers every point whose carrier-to-signal ratio is not above
    SIDEBAND_RATIO_FLOOR.
    """
    grid = omega if isinstance(omega, list) else [omega]
    xp = ops.of(*grid, *vars(p).values()) if grid else ops.numpy_ops()   # [] as an array
    try:
        point, ratio = _spectrum(xp, p, grid if xp is ops.FLOAT else omega)
    except ArithmeticError:
        xp = ops.numpy_ops()
        p = p.with_(**{name: xp.np.float64(value) for name, value in vars(p).items()})
        point, ratio = _spectrum(xp, p, omega)
    for name, column in vars(point).items():
        if bad := xp.nonfinite(column):
            raise ValueError(f"the budget leaves the float range: {name} = {bad[0]}")
    if ratio <= SIDEBAND_RATIO_FLOOR:
        warnings.warn(f"carrier-to-signal frequency ratio {ratio:.3g} is not above "
                      f"{SIDEBAND_RATIO_FLOOR:g}; the sideband-resolved model becomes inaccurate",
                      stacklevel=2)
    return point[0] if xp is ops.FLOAT and grid is not omega else point


def _spectrum(xp, p: InstrumentParams, omega) -> tuple:
    """The unchecked budget at omega, and its least carrier-to-signal ratio."""
    if xp is ops.FLOAT:      # a list of floats, point by point
        rows = [vars(sensor_noise_spectrum(p, w)).values() for w in omega]
        return BudgetPoint(*map(list, zip(*rows))), min(p.omega_t / abs(w) for w in omega)
    w, np = xp.frequencies(omega), xp.np
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return sensor_noise_spectrum(p, w), np.min(p.omega_t / abs(w), initial=math.inf)


def sweep(p: InstrumentParams, axis: str, grid, omega: float | None = None) -> BudgetPoint:
    """Budget over a grid along one axis, as one budget_point call.

    axis is "frequency" (grid in rad/s) or the name of a parameter field
    such as "R_a" (then omega fixes the analysis frequency, and the grid
    is the field's (N,) numpy column, validated point by point by
    InstrumentParams).  A frequency list runs in floats, an array as one
    numpy grid.  The grid must be 1-D, nonempty and strictly increasing; the
    (N,) columns follow it.  An error names the first point that fails
    on its own and quotes that point's error, unless every point fails.
    """
    float_path = axis == "frequency" and isinstance(grid, list)     # budget_point's type rule
    if not float_path:
        grid = ops.numpy_ops().np.asarray(grid, dtype=float)
        if grid.ndim != 1:
            raise TypeError(f"sweep grid must be one-dimensional, got shape {grid.shape}")
    values = [float(v) for v in grid] if float_path else grid.tolist()
    if not values:
        raise ValueError("sweep grid must be nonempty")
    if not all(map(operator.lt, values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if axis == "frequency":
        def at(value):
            return budget_point(p, value)
    elif axis not in InstrumentParams._fields:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'frequency' or one of "
                         f"{', '.join(InstrumentParams._fields)}")
    elif omega is None:
        raise ValueError("parameter sweeps need an analysis frequency")
    else:
        def at(value):
            return budget_point(p.with_(**{axis: value}), omega)
    try:
        return at(values if float_path else grid)
    except ValueError as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first, own = next(((v, e) for v in values if (e := _error(at, v))), (None, None))
            every = first == values[0] and all(_error(at, v) for v in values[1:])
        if first is None or every:
            raise    # no one point's failure: the grid's own error says why
        raise ValueError(f"sweep failed at {axis} = {first!r}: {own}") from exc


def _error(at, value: float) -> ValueError | None:
    """The ValueError that at(value) raises, or None."""
    try:
        at(value)
    except ValueError as exc:
        return exc
    return None
