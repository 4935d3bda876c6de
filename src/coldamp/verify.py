"""Self-verification suite: closed forms against the network oracle.

Every analytic coefficient table in the package is re-derived here by
solving the raw network equations and comparing entry by entry, over
randomized parameter draws.  The CLI `verify` command is a thin wrapper
around run_checks.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import network, sensor, servo
from .budget import budget_point
from .noise import LINE_LABELS
from .params import InstrumentParams

# Closed forms under test, bound once at module level so a test harness
# can substitute a corrupted implementation and confirm the suite fails.
free_lambda = sensor.free_mass_coefficients
estimator_mu = sensor.estimator_coefficients
closed_loop_mu = servo.cold_damped_estimator

ORACLE_TOL = 1e-10
# No check uses a condition number.  The benchmark's tracer
# (bench/tracer.py) reads this name and counts the solves whose
# ScatteringResult.condition exceeds it; that condition is nan, so none do.
ILL_CONDITIONED = 1e10
EQUALITY_TOL = 1e-12
# Both estimator routes evaluate the cancelling a1 bracket exactly; over
# 100 000 seeds at 20 draws they differ by at most 1.47e-15.
LOOP_TOL = 1e-14
EXPONENT_TOL = 0.05

# Half-widths, in decades, of the log-uniform draws around the reference
# design point, in stream order: the parameters, then "omega" for each
# analysis frequency.
_DECADES = {**dict.fromkeys(("M", "K", "H_m", "kappa_t", "R_l", "R_r", "R_a", "C_f", "C_t"), 2.0),
            "T_m": 1.0, "T_a": 1.0, "omega": 1.5}
_PARAMS = tuple(_DECADES)[:-1]
FREQUENCIES = 10     # analysis frequencies drawn per parameter set for the oracle
# Points per stacked oracle solve: memory stays flat at any draw count.
_BLOCK = 64


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance

    def __str__(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max deviation {self.deviation:.3e} "
                f"(tolerance {self.tolerance:.3e})")


@contextmanager
def _quiet():
    """Suppress precondition warnings raised by deliberately extreme draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _draws(p: InstrumentParams, omega: float, seed: int, draws: int, count: int):
    """Draw parameter sets (the first is p) with count frequencies each.

    Each draw scales every field of _PARAMS by 10 ** uniform(-d, d), d
    its _DECADES, and then draws count frequencies the same way around
    omega, all from one array of the seed's stream.  Returns one grid
    of the sets, each repeated count times, and its (draws * count,)
    frequencies.
    """
    rng = np.random.default_rng(seed)
    first = rng.uniform(-_DECADES["omega"], _DECADES["omega"], size=count)
    high = np.array([_DECADES[name] for name in _PARAMS] + [_DECADES["omega"]] * count)
    u = rng.uniform(-high, high, size=(draws - 1, len(high)))
    base = np.array([getattr(p, name) for name in _PARAMS])
    # float_power is the C pow of Python's **; numpy's ** rounds some factors differently.
    with np.errstate(over="ignore"):      # an overflowed set fails with_'s validation
        sets = np.vstack([base, base * np.float_power(10.0, u[:, :len(_PARAMS)])])
    grid = p.with_(**{name: np.repeat(sets[:, k], count) for k, name in enumerate(_PARAMS)})
    return grid, omega * 10.0 ** np.concatenate([first, u[:, len(_PARAMS):].ravel()])


def _points(grid: InstrumentParams, rows: slice) -> InstrumentParams:
    """The grid's points at rows."""
    return grid.with_(**{f.name: v[rows] for f in fields(grid)
                         if np.ndim(v := getattr(grid, f.name))})


def _split_deviation(q: InstrumentParams, ws, lam: np.ndarray, mu: np.ndarray) -> float:
    """Worst deviation of the budget's velocity split, rebuilt from the rows.

    |Xi_m|^2 sigma_vfr, sigma_vse, sigma_cross are sum_a sigma_a times
    |lambda_a|^2, |mu_a - lambda_a|^2 and the rest of |mu_a|^2; each
    point is compared relative to vfr + vse + |cross|.
    """
    with _quiet():
        table = budget_point(q, ws)
    sigma = sensor.line_spectra(q, ws)[0]
    vfr, vse, ff = (sensor.coefficient_sum(c, sigma) for c in (lam, mu - lam, mu))
    xi = sensor.mechanical_impedance(q, ws)
    rebuilt = np.array([vfr, vse, ff - vfr - vse]) / sensor._abs2(xi.real, xi.imag)
    closed = np.array([table.sigma_vfr, table.sigma_vse, table.sigma_cross])
    return float((np.abs(rebuilt - closed) / (closed[0] + closed[1] + np.abs(closed[2]))).max())


def oracle_agreement(p: InstrumentParams, omega: float,
                     draws: int, seed: int) -> tuple[float, float, float, float]:
    """Worst deviations (lambda, mu, passive-row commutator, velocity split).

    Every point (FREQUENCIES per draw) compares directly against ORACLE_TOL.
    The grid is solved as stacks of up to _BLOCK points; the closed forms
    and the velocity split evaluate it at once, from the same solves.
    """
    grid, ws = _draws(p, omega, seed, draws, FREQUENCIES)
    lam, mu = (np.empty((len(ws), len(LINE_LABELS)), dtype=complex) for _ in range(2))
    worst_comm = 0.0
    for start in range(0, len(ws), _BLOCK):
        rows = slice(start, start + _BLOCK)
        net = network.build_sensor_network(_points(grid, rows), None, ws[rows])
        res = network.solve(net)
        lam[rows] = network.normalized_row(res.transfer_rows["velocity"])
        mu[rows] = network.normalized_row(res.transfer_rows["detected"])
        worst_comm = max(worst_comm, network.check_commutators(net, res))
    return (sensor.max_rel_diff(free_lambda(grid, ws), lam),
            sensor.max_rel_diff(estimator_mu(grid, ws), mu),
            worst_comm, _split_deviation(grid, ws, lam, mu))


def toy_commutators(omega: float) -> float:
    """Commutator deviation over the toy networks (passive, none conjugated)."""
    nets = (network.build_matched_junction(50.0, 50.0, omega),
            network.build_matched_junction(50.0, 800.0, omega),
            network.build_open_line(120.0, omega))
    return max(network.check_commutators(net, network.solve(net)) for net in nets)


def loop_estimator_equality(p: InstrumentParams, omega: float,
                            draws: int, seed: int) -> float:
    """Closed-loop vs open-loop estimator coefficients, independent paths."""
    grid, ws = _draws(p, omega, seed, draws, 3)
    with _quiet():
        return sensor.max_rel_diff(estimator_mu(grid, ws), closed_loop_mu(grid, ws))


def sensing_identity_sweep(p: InstrumentParams, omega: float) -> float:
    """Max V_cd = -V_se residual over 31 points of a three-decade frequency sweep."""
    return servo.sensing_error_identity(p, omega * np.logspace(-1.5, 1.5, 31))


def finite_gain_exponent(p: InstrumentParams, omega: float) -> float:
    """Fitted power of 1/|G_s| in the convergence to the infinite-gain table.

    Loop gains are chosen to synthesize effective dampings H_me/H_m of
    1e3 to 1e7; the log-log slope of deviation vs |G_s| should be -1 for
    a first-order limit.
    """
    gains = np.array([servo.gain_for_effective_impedance(p, r * p.H_m, omega)
                      for r in (1e3, 1e4, 1e5, 1e6, 1e7)])
    target = servo.cold_damped_velocity(p, omega)   # the infinite-gain velocity table
    rows = network.solve(network.build_sensor_network(p, gains, omega)).transfer_rows["velocity"]
    devs = np.abs(rows[:, :len(target)] - target).max(axis=1) / np.abs(target).max()
    return float(np.polyfit(np.log10(np.abs(gains)), np.log10(devs), 1)[0])


def decomposition_consistency(p: InstrumentParams, omega: float,
                              draws: int, seed: int) -> float:
    """Component sum vs direct quadratic total of the force spectrum."""
    grid, ws = _draws(p, omega, seed, draws, 3)
    b = sensor.sensor_noise_spectrum(grid, ws)
    columns = (b.sigma_ff, b.langevin, b.back_action, b.sensing, b.interference)
    return max(abs(math.fsum(parts) - total) / total
               for total, *parts in zip(*(c.tolist() for c in columns)))


def run_checks(p: InstrumentParams, omega: float, *,
               draws: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run the full verification suite; returns one result per check."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if p.kappa_t == 0.0:
        raise ValueError("verification needs electromechanical coupling; kappa_t is 0")

    lam, mu, comm, split = oracle_agreement(p, omega, draws, seed)
    return [
        CheckResult("oracle velocity coefficients", lam, ORACLE_TOL),
        CheckResult("oracle estimator coefficients", mu, ORACLE_TOL),
        CheckResult("sensor commutator preservation (m, l1, l2)", comm, ORACLE_TOL),
        CheckResult("oracle velocity split (vfr, vse, cross)", split, ORACLE_TOL),
        CheckResult("toy-network commutator preservation", toy_commutators(omega), ORACLE_TOL),
        CheckResult("open/closed-loop estimator equality",
                    loop_estimator_equality(p, omega, draws, seed + 1), LOOP_TOL),
        CheckResult("cold-damped velocity vs sensing error",
                    sensing_identity_sweep(p, omega), ORACLE_TOL),
        CheckResult("finite-gain convergence exponent",
                    abs(finite_gain_exponent(p, omega) + 1.0), EXPONENT_TOL),
        CheckResult("spectrum decomposition sum",
                    decomposition_consistency(p, omega, draws, seed + 2), EQUALITY_TOL),
    ]
