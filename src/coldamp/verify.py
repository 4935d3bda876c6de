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
EXPONENT_TOL = 0.05

# Parameters drawn log-uniformly around the reference design point.
_DRAWN = ("M", "K", "H_m", "kappa_t", "R_l", "R_r", "R_a", "C_f", "C_t")
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


def draw_params(base: InstrumentParams, rng: np.random.Generator,
                decades: float = 2.0) -> InstrumentParams:
    """Random parameter set log-uniform within +-decades of the base."""
    changes = {name: getattr(base, name) * 10.0 ** rng.uniform(-decades, decades)
               for name in _DRAWN}
    changes["T_m"] = base.T_m * 10.0 ** rng.uniform(-1.0, 1.0)
    changes["T_a"] = base.T_a * 10.0 ** rng.uniform(-1.0, 1.0)
    return base.with_(**changes)


def draw_frequencies(base_omega: float, rng: np.random.Generator,
                     count: int = 10, decades: float = 1.5) -> np.ndarray:
    """Random analysis frequencies log-uniform around a reference."""
    return base_omega * 10.0 ** rng.uniform(-decades, decades, size=count)


@contextmanager
def _quiet():
    """Suppress precondition warnings raised by deliberately extreme draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _draws(p: InstrumentParams, omega: float, seed: int, draws: int, count: int):
    """Draw parameter sets (the first is p) with count frequencies each.

    The stream of draw_params and draw_frequencies called per draw,
    drawn as one array.  Returns one grid of the sets, each repeated
    count times, and its (draws * count,) frequencies.
    """
    rng = np.random.default_rng(seed)
    first = rng.uniform(-1.5, 1.5, size=count)
    names = (*_DRAWN, "T_m", "T_a")
    high = np.array([2.0] * len(_DRAWN) + [1.0, 1.0] + [1.5] * count)
    u = rng.uniform(-high, high, size=(draws - 1, len(high)))
    base = np.array([getattr(p, name) for name in names])
    # float_power is the C pow of Python's **; numpy's ** rounds some factors differently.
    with np.errstate(over="ignore"):      # an overflowed set fails validation below
        sets = np.vstack([base, base * np.float_power(10.0, u[:, :len(names)])])
    # Every InstrumentParams rule bounds one field, so the column ends validate all sets.
    for ends in (sets.min(axis=0), sets.max(axis=0)):
        p.with_(**dict(zip(names, ends.tolist())))
    grid = p.grid(**{name: np.repeat(sets[:, k], count) for k, name in enumerate(names)})
    return grid, omega * 10.0 ** np.concatenate([first, u[:, len(names):].ravel()])


def _points(grid: InstrumentParams, rows: slice) -> InstrumentParams:
    """The grid's points at rows."""
    return grid.grid(**{f.name: v[rows] for f in fields(grid)
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
                     draws: int, frequencies: int,
                     seed: int) -> tuple[float, float, float, float]:
    """Worst deviations (lambda, mu, passive-row commutator, velocity split).

    Every point compares directly against ORACLE_TOL.  The drawn grid is
    solved as stacks of up to _BLOCK points; the closed forms and the
    velocity split evaluate the whole grid at once, from the same solves.
    """
    grid, ws = _draws(p, omega, seed, draws, frequencies)
    lam, mu = (np.empty((len(ws), len(LINE_LABELS)), dtype=complex) for _ in range(2))
    worst_comm = 0.0
    for start in range(0, len(ws), _BLOCK):
        rows = slice(start, start + _BLOCK)
        res = network.solve(network.build_sensor_network(_points(grid, rows), None, ws[rows]))
        lam[rows] = network.normalized_row(res.transfer_rows["velocity"])
        mu[rows] = network.normalized_row(res.transfer_rows["detected"])
        worst_comm = max(worst_comm, network.check_commutators(res))
    return (sensor.max_rel_diff(free_lambda(grid, ws), lam),
            sensor.max_rel_diff(estimator_mu(grid, ws), mu),
            worst_comm, _split_deviation(grid, ws, lam, mu))


def toy_commutators(omega: float) -> float:
    """Commutator deviation over the toy networks (passive, eta = 1)."""
    nets = (network.build_matched_junction(50.0, 50.0, omega),
            network.build_matched_junction(50.0, 800.0, omega),
            network.build_open_line(120.0, omega))
    return max(network.check_commutators(network.solve(net)) for net in nets)


def loop_estimator_equality(p: InstrumentParams, omega: float,
                            draws: int, seed: int) -> float:
    """Closed-loop vs open-loop estimator coefficients, independent paths."""
    grid, ws = _draws(p, omega, seed, draws, 3)
    with _quiet():
        return sensor.max_rel_diff(estimator_mu(grid, ws), closed_loop_mu(grid, ws))


def sensing_identity_sweep(p: InstrumentParams, omega: float,
                           points: int = 31) -> float:
    """Max V_cd = -V_se residual over a three-decade frequency sweep."""
    return servo.sensing_error_identity(p, omega * np.logspace(-1.5, 1.5, points))


def finite_gain_exponent(p: InstrumentParams, omega: float,
                         ratios=(1e3, 1e4, 1e5, 1e6, 1e7)) -> float:
    """Fitted power of 1/|G_s| in the convergence to the infinite-gain table.

    Loop gains are chosen to synthesize effective dampings H_me/H_m at
    the given ratios; the log-log slope of deviation vs |G_s| should be
    -1 for a first-order limit.
    """
    gains = np.array([servo.gain_for_effective_impedance(p, r * p.H_m, omega) for r in ratios])
    target = servo.cold_damped_velocity(p, omega)   # the infinite-gain velocity table
    rows = network.solve(network.build_sensor_network(p, gains, omega)).transfer_rows["velocity"]
    devs = np.abs(rows[:, :len(target)] - target).max(axis=1) / np.abs(target).max()
    slope = np.polyfit(np.log10(np.abs(gains)), np.log10(devs), 1)[0]
    return float(slope)


def decomposition_consistency(p: InstrumentParams, omega: float,
                              draws: int, seed: int) -> float:
    """Component sum vs direct quadratic total of the force spectrum."""
    grid, ws = _draws(p, omega, seed, draws, 3)
    b = sensor.sensor_noise_spectrum(grid, ws)
    columns = (b.total, b.langevin, b.back_action, b.sensing, b.interference)
    return max(abs(math.fsum(parts) - total) / total
               for total, *parts in zip(*(c.tolist() for c in columns)))


def run_checks(p: InstrumentParams, omega: float, *,
               draws: int = 100, frequencies: int = 10,
               seed: int = 0) -> list[CheckResult]:
    """Run the full verification suite; returns one result per check."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if p.kappa_t == 0.0:
        raise ValueError("verification needs electromechanical coupling; kappa_t is 0")

    lam, mu, comm, split = oracle_agreement(p, omega, draws, frequencies, seed)
    return [
        CheckResult("oracle velocity coefficients", lam, ORACLE_TOL),
        CheckResult("oracle estimator coefficients", mu, ORACLE_TOL),
        CheckResult("sensor commutator preservation (m, l1, l2)", comm, ORACLE_TOL),
        CheckResult("oracle velocity split (vfr, vse, cross)", split, ORACLE_TOL),
        CheckResult("toy-network commutator preservation", toy_commutators(omega), ORACLE_TOL),
        CheckResult("open/closed-loop estimator equality",
                    loop_estimator_equality(p, omega, draws, seed + 1), EQUALITY_TOL),
        CheckResult("cold-damped velocity vs sensing error",
                    sensing_identity_sweep(p, omega), ORACLE_TOL),
        CheckResult("finite-gain convergence exponent",
                    abs(finite_gain_exponent(p, omega) + 1.0), EXPONENT_TOL),
        CheckResult("spectrum decomposition sum",
                    decomposition_consistency(p, omega, draws, seed + 2), EQUALITY_TOL),
    ]
