"""Self-verification suite: closed forms against the network oracle.

Every analytic coefficient table in the package is re-derived here by
solving the raw network equations and comparing entry by entry, over
randomized parameter draws; every comparison of the package lives here.
run_checks solves the oracle on one grid of draws, then evaluates each
closed form on it once for the grid checks, which only compare; the CLI
`verify` command is a thin wrapper around run_checks.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import network, ops, sensor, servo
from .noise import LINE_LABELS
from .params import InstrumentParams, Record, _broken_rule

# Closed forms under test, bound once at module level so a test harness
# can substitute a corrupted implementation and confirm the suite fails.
free_lambda = sensor.free_mass_coefficients
estimator_mu = sensor.estimator_coefficients
closed_loop_mu = servo.cold_damped_estimator
spectrum = sensor._noise_spectrum      # sensor_noise_spectrum from estimator_mu and line spectra

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
FREQUENCIES = 10     # frequencies per drawn set; draw i, frequency j is grid row 10 i + j
# Points per stacked oracle solve: memory stays flat at any draw count.  At
# 1000 draws a cold `verify` peaks at 48 MB resident with 256 or 512 (81 MB
# as one stack), set by the closed forms over the grid; 512 is no faster.
_BLOCK = 256


class CheckResult(Record):
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


def max_rel_diff(mine, theirs, floor: float = 1e-6) -> float:
    """Entry-wise relative deviation of theirs from mine, small-entry floor.

    Entries of mine below floor times its largest (including structural
    zeros) are compared against that largest entry instead of themselves:
    double-precision linear algebra cannot resolve such entries relative
    to their own magnitude.  A stack of rows is judged row by row.
    """
    size = np.abs(mine)
    scale = size.max(axis=-1, keepdims=True)
    denom = np.where(size >= floor * scale, size, scale)
    return float((np.abs(np.subtract(mine, theirs)) / denom).max())


def _draws(p: InstrumentParams, omega: float, seed: int, draws: int):
    """Draw parameter sets (the first is p) with FREQUENCIES frequencies each.

    Each draw scales every field of _PARAMS by 10 ** uniform(-d, d), d
    its _DECADES, and then draws its frequencies the same way around
    omega, all from one array of the seed's stream.  Returns one grid of
    the sets, each repeated, and its frequencies: draw i, frequency j is
    row i * FREQUENCIES + j.  A set out of range names its seed and draw.
    """
    rng = np.random.default_rng(seed)
    first = rng.uniform(-_DECADES["omega"], _DECADES["omega"], size=FREQUENCIES)
    high = np.array([_DECADES[name] for name in _PARAMS] + [_DECADES["omega"]] * FREQUENCIES)
    u = rng.uniform(-high, high, size=(draws - 1, len(high)))
    base = np.array([getattr(p, name) for name in _PARAMS])
    # float_power is the C pow of Python's **; numpy's ** rounds some factors differently.
    with np.errstate(over="ignore"):      # an overflowed set fails with_'s validation
        sets = np.vstack([base, base * np.float_power(10.0, u[:, :len(_PARAMS)])])
    try:
        grid = p.with_(**dict(zip(_PARAMS, np.repeat(sets.T, FREQUENCIES, axis=1))))
    except ValueError:          # the first failing set's first broken rule
        raise ValueError(next(f"seed {seed}, draw {i}: {e}" for i, row in enumerate(sets.tolist())
                              for e in map(_broken_rule, _PARAMS, row) if e)) from None
    return grid, omega * 10.0 ** np.concatenate([first, u[:, len(_PARAMS):].ravel()])


def _split_deviation(q: InstrumentParams, ws, lam, mu, table, sigma) -> float:
    """Worst deviation of the spectrum table's velocity split, rebuilt from the rows.

    |Xi_m|^2 sigma_vfr, sigma_vse, sigma_cross are sum_a sigma_a (line spectra) times |lambda_a|^2,
    |mu_a - lambda_a|^2 and the rest of |mu_a|^2; each point is compared to vfr + vse + |cross|.
    """
    xp = ops.numpy_ops()
    vfr, vse, ff = (sensor.coefficient_sum(xp, c, sigma) for c in (lam, mu - lam, mu))
    xi = sensor.mechanical_impedance(q, ws)
    rebuilt = np.array([vfr, vse, ff - vfr - vse]) / xp.abs2(xi.real, xi.imag)
    closed = np.array([table.sigma_vfr, table.sigma_vse, table.sigma_cross])
    return float((np.abs(rebuilt - closed) / (closed[0] + closed[1] + np.abs(closed[2]))).max())


def _rows(net: network.LinearNetwork, rows: slice) -> network.LinearNetwork:
    """The stack net at rows: each (N,) column sliced, a view; scalar entries as they are."""
    a, b = ({k: v[rows] if np.ndim(v) else v for k, v in e.items()} for e in (net.a, net.b))
    return net.replace(a=a, b=b, omega=net.omega[rows])


def _oracle_rows(grid: InstrumentParams, ws):
    """The oracle's lambda and mu rows and worst passive-row commutator, in _BLOCK slices."""
    lam, mu = (np.empty((len(ws), len(LINE_LABELS)), dtype=complex) for _ in range(2))
    worst_comm = 0.0
    grid_net = network.build_sensor_network(grid, None, ws)       # one build per grid
    for start in range(0, len(ws), _BLOCK):
        rows = slice(start, start + _BLOCK)
        net = _rows(grid_net, rows)
        res = network.solve(net)
        lam[rows] = network.normalized_row(net, res.transfer_rows["velocity"])
        mu[rows] = network.normalized_row(net, res.transfer_rows["detected"])
        worst_comm = max(worst_comm, network.check_commutators(net, res))
    return lam, mu, worst_comm


def oracle_agreement(grid: InstrumentParams, ws, oracle, mu, table,
                     sigma) -> tuple[float, float, float, float]:
    """Worst deviations (lambda, mu, passive-row commutator, velocity split) of free_lambda,
    the estimator table mu and the spectrum table (of line spectra sigma) from the oracle."""
    lam_rows, mu_rows, worst_comm = oracle
    return (max_rel_diff(free_lambda(grid, ws), lam_rows), max_rel_diff(mu, mu_rows),
            worst_comm, _split_deviation(grid, ws, lam_rows, mu_rows, table, sigma))


def toy_commutators(omega: float) -> float:
    """Commutator deviation over the toy networks (passive, none conjugated)."""
    nets = (network.build_matched_junction(50.0, np.array([50.0, 800.0]), omega),  # one stack
            network.build_open_line(120.0, omega))
    return max(network.check_commutators(net, network.solve(net)) for net in nets)


def loop_estimator_equality(grid: InstrumentParams, ws, mu) -> float:
    """The closed-loop estimator table against the open-loop one, mu, over a grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the loop's preconditions, on extreme draws
        return max_rel_diff(mu, closed_loop_mu(grid, ws))


def sensing_error_identity(p: InstrumentParams, omega) -> float:
    """Maximum entry-wise relative deviation from V_cd = -V_se, worst point of a grid.

    V_cd comes from the infinite-gain velocity table; V_se is the
    Xi_m-proportional part of the open-loop estimator divided by Xi_m.
    Exact in the model, so the residual is at rounding level.
    """
    w = ops.numpy_ops().frequencies(omega)
    xi = np.asarray(sensor.mechanical_impedance(p, w))[..., None]
    v_se = (estimator_mu(p, w) - free_lambda(p, w)) / xi
    return max_rel_diff(-v_se, servo.cold_damped_velocity(p, w), floor=1e-14)


def sensing_identity_sweep(p: InstrumentParams, omega: float) -> float:
    """Max V_cd = -V_se residual over 31 points of a three-decade frequency sweep."""
    return sensing_error_identity(p, omega * np.logspace(-1.5, 1.5, 31))


def finite_gain_exponent(p: InstrumentParams, omega: float) -> float:
    """Fitted power of 1/|G_s| in the convergence to the infinite-gain table.

    Loop gains synthesize effective dampings H_me of 1e3 to 1e7 times
    |Xi_m|, the scale of the convergence; the log-log slope of deviation
    vs |G_s| should be -1 for a first-order limit.
    """
    xi = abs(sensor.mechanical_impedance(p, omega))
    try:
        gains = np.array([servo.gain_for_effective_impedance(p, r * xi, omega)
                          for r in (1e3, 1e4, 1e5, 1e6, 1e7)])
    except ZeroDivisionError:            # 2 kappa_t |Z_f| underflows to 0: no finite gain
        return math.nan
    if not np.isfinite(gains).all():     # past the float range: nan, which fails
        return math.nan
    target = servo.cold_damped_velocity(p, omega)   # the infinite-gain velocity table
    rows = network.solve(network.build_sensor_network(p, gains, omega)).transfer_rows["velocity"]
    devs = np.abs(rows[:, :len(target)] - target).max(axis=1) / np.abs(target).max()
    return float(np.polyfit(np.log10(np.abs(gains)), np.log10(devs), 1)[0])


def decomposition_consistency(b: sensor.BudgetPoint) -> float:
    """Component sum vs direct quadratic total of a force spectrum table b; a nan point fails."""
    columns = (b.sigma_ff, b.langevin, b.back_action, b.sensing, b.interference)
    deviations = []
    for total, *parts in zip(*(c.tolist() for c in columns)):
        try:
            deviations.append(abs(math.fsum(parts) - total) / total)
        except (ValueError, ArithmeticError):   # opposite infinities, an overflowing sum, 0 / 0
            deviations.append(math.nan)
    return float(np.max(deviations))


def run_checks(p: InstrumentParams, omega: float, *,
               draws: int, seed: int = 0) -> list[CheckResult]:
    """Run the full verification suite on one grid of draws; one result per check."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if p.kappa_t == 0.0:
        raise ValueError("verification needs electromechanical coupling; kappa_t is 0")

    grid, ws = _draws(p, omega, seed, draws)
    servo.check_loop(p)     # warns once for the design, not again from each check at it
    # A figure out of the float range reads FAIL, unwarned.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", servo.WeakLoadingWarning)
        oracle = _oracle_rows(grid, ws)     # first: a grid without a drive response fails here
        mu, lines = estimator_mu(grid, ws), sensor.line_spectra(grid, ws)
        table = spectrum(ops.numpy_ops(), grid, ws, mu, lines)
        lam_dev, mu_dev, comm, split = oracle_agreement(grid, ws, oracle, mu, table, lines[0])
        del oracle, lines                   # the rows and spectra take 4 MB at 1000 draws
        return [
            CheckResult("oracle velocity coefficients", lam_dev, ORACLE_TOL),
            CheckResult("oracle estimator coefficients", mu_dev, ORACLE_TOL),
            CheckResult("sensor commutator preservation (m, l1, l2)", comm, ORACLE_TOL),
            CheckResult("oracle velocity split (vfr, vse, cross)", split, ORACLE_TOL),
            CheckResult("toy-network commutator preservation", toy_commutators(omega), ORACLE_TOL),
            CheckResult("open/closed-loop estimator equality",
                        loop_estimator_equality(grid, ws, mu), LOOP_TOL),
            CheckResult("cold-damped velocity vs sensing error",
                        sensing_identity_sweep(p, omega), ORACLE_TOL),
            CheckResult("finite-gain convergence exponent",
                        abs(finite_gain_exponent(p, omega) + 1.0), EXPONENT_TOL),
            CheckResult("spectrum decomposition sum",
                        decomposition_consistency(table), EQUALITY_TOL),
        ]
