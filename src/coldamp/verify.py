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
from dataclasses import dataclass

import numpy as np

from . import network, sensor, servo
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
    changes = {
        name: getattr(base, name) * 10.0 ** rng.uniform(-decades, decades)
        for name in _DRAWN
    }
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


def oracle_agreement(p: InstrumentParams, omega: float,
                     draws: int, frequencies: int,
                     seed: int) -> tuple[float, float, float]:
    """Worst deviations (lambda, mu, passive-row commutator) over draws.

    Every point's deviation compares directly against ORACLE_TOL.
    """
    rng = np.random.default_rng(seed)
    worst_lam = worst_mu = worst_comm = 0.0
    for i in range(draws):
        q = draw_params(p, rng) if i else p
        for w in draw_frequencies(omega, rng, count=frequencies):
            res = network.solve(network.build_sensor_network(q, None, w))
            lam_oracle = network.normalized_row(res.transfer_rows["velocity"])
            mu_oracle = network.normalized_row(res.transfer_rows["detected"])
            worst_lam = max(worst_lam, sensor.max_rel_diff(free_lambda(q, w), lam_oracle))
            worst_mu = max(worst_mu, sensor.max_rel_diff(estimator_mu(q, w), mu_oracle))
            worst_comm = max(worst_comm, network.check_commutators(res))
    return worst_lam, worst_mu, worst_comm


def toy_commutators(omega: float) -> float:
    """Commutator deviation over the toy networks (passive, eta = 1)."""
    worst = 0.0
    for net in (
        network.build_matched_junction(50.0, 50.0, omega),
        network.build_matched_junction(50.0, 800.0, omega),
        network.build_open_line(120.0, omega),
    ):
        worst = max(worst, network.check_commutators(network.solve(net)))
    return worst


def loop_estimator_equality(p: InstrumentParams, omega: float,
                            draws: int, seed: int) -> float:
    """Closed-loop vs open-loop estimator coefficients, independent paths."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    with _quiet():
        for i in range(draws):
            q = draw_params(p, rng) if i else p
            for w in draw_frequencies(omega, rng, count=3):
                worst = max(worst, sensor.max_rel_diff(estimator_mu(q, w), closed_loop_mu(q, w)))
    return worst


def sensing_identity_sweep(p: InstrumentParams, omega: float,
                           points: int = 31) -> float:
    """Max V_cd = -V_se residual over a three-decade frequency sweep."""
    grid = omega * np.logspace(-1.5, 1.5, points)
    return max(servo.sensing_error_identity(p, w) for w in grid)


def finite_gain_deviation(p: InstrumentParams, omega: float, gain: complex) -> float:
    """Distance of the finite-gain velocity row from the infinite-gain table."""
    net = network.build_sensor_network(p, gain, omega)
    row = network.solve(net).transfer_rows["velocity"]
    target = servo.cold_damped_velocity(p, omega)
    return float(np.abs(row[:len(target)] - target).max() / np.abs(target).max())


def finite_gain_exponent(p: InstrumentParams, omega: float,
                         ratios=(1e3, 1e4, 1e5, 1e6, 1e7)) -> float:
    """Fitted power of 1/|G_s| in the convergence to the infinite-gain table.

    Loop gains are chosen to synthesize effective dampings H_me/H_m at
    the given ratios; the log-log slope of deviation vs |G_s| should be
    -1 for a first-order limit.
    """
    gains = [servo.gain_for_effective_impedance(p, r * p.H_m, omega) for r in ratios]
    devs = [finite_gain_deviation(p, omega, g) for g in gains]
    slope = np.polyfit(np.log10(np.abs(gains)), np.log10(devs), 1)[0]
    return float(slope)


def decomposition_consistency(p: InstrumentParams, omega: float,
                              draws: int, seed: int) -> float:
    """Component sum vs direct quadratic total of the force spectrum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(draws):
        q = draw_params(p, rng) if i else p
        for w in draw_frequencies(omega, rng, count=3):
            b = sensor.sensor_noise_spectrum(q, w)
            parts = math.fsum((b.langevin, b.back_action, b.sensing, b.interference))
            worst = max(worst, abs(parts - b.total) / b.total)
    return worst


def run_checks(p: InstrumentParams, omega: float, *,
               draws: int = 100, frequencies: int = 10,
               seed: int = 0) -> list[CheckResult]:
    """Run the full verification suite; returns one result per check."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if p.kappa_t == 0.0:
        raise ValueError("verification needs electromechanical coupling; kappa_t is 0")

    lam, mu, comm = oracle_agreement(p, omega, draws, frequencies, seed)
    return [
        CheckResult("oracle velocity coefficients", lam, ORACLE_TOL),
        CheckResult("oracle estimator coefficients", mu, ORACLE_TOL),
        CheckResult("sensor commutator preservation (m, l1, l2)", comm, ORACLE_TOL),
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
