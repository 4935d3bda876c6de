"""Acceptance gate: one test per headline requirement.

Each test prints a single PASS/FAIL line with the measured figure so a
`pytest -v -s` run doubles as an acceptance report.
"""

import time

import numpy as np

from coldamp.budget import budget_point
from coldamp.matching import numerical_matching, optimal_matching
from coldamp.noise import HBAR, K_B, effective_temperature
from coldamp.network import build_sensor_network, check_commutators, solve
from coldamp.sensor import estimator_coefficients, line_spectra, sensor_noise_spectrum
from coldamp.verify import (
    _draws,
    _oracle_rows,
    decomposition_consistency,
    finite_gain_exponent,
    loop_estimator_equality,
    oracle_agreement,
    sensing_identity_sweep,
    toy_commutators,
)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_headline_force_noise(reference_params, reference_omega):
    start = time.perf_counter()
    sigma = budget_point(reference_params, reference_omega).sigma_ff
    elapsed = time.perf_counter() - start
    ok = abs(sigma - 1.1e-25) / 1.1e-25 < 0.03 and elapsed < 1.0
    report("headline force noise", ok,
           f"sigma_ff = {sigma:.4e} N^2/Hz (target 1.1e-25 +/- 3%), {elapsed:.3f} s")


def test_acceptance_2_acceleration_sensitivity(reference_params, reference_omega):
    start = time.perf_counter()
    sens = budget_point(reference_params, reference_omega).accel_sensitivity
    elapsed = time.perf_counter() - start
    ok = abs(sens - 1.2e-12) / 1.2e-12 < 0.05 and elapsed < 1.0
    report("acceleration sensitivity", ok,
           f"{sens:.4e} m s^-2/sqrt(Hz) (target 1.2e-12 +/- 5%), {elapsed:.3f} s")


def test_acceptance_3_oracle_equivalence(reference_params, reference_omega):
    start = time.perf_counter()
    grid, ws = _draws(reference_params, reference_omega, 0, 1000)
    lam, mu, _, _ = oracle_agreement(grid, ws, _oracle_rows(grid, ws),
                                     estimator_coefficients(grid, ws),
                                     sensor_noise_spectrum(grid, ws), line_spectra(grid, ws)[0])
    elapsed = time.perf_counter() - start
    worst = max(lam, mu)
    ok = worst < 1e-10 and elapsed < 30.0
    report("oracle equivalence", ok,
           f"worst deviation {worst:.3e} over 1000 draws x 10 frequencies "
           f"(tolerance 1e-10), {elapsed:.1f} s")


def test_acceptance_4_loop_invariance(reference_params, reference_omega):
    grid, ws = _draws(reference_params, reference_omega, 0, 100)
    dev = loop_estimator_equality(grid, ws, estimator_coefficients(grid, ws))
    slope = finite_gain_exponent(reference_params, reference_omega)
    ok = dev < 1e-12 and abs(slope + 1.0) < 0.05
    report("loop invariance", ok,
           f"closed/open deviation {dev:.3e} (tolerance 1e-12), "
           f"finite-gain exponent {slope:.4f} (target -1 +/- 0.05)")


def test_acceptance_5_sensing_error_identity(reference_params, reference_omega):
    dev = sensing_identity_sweep(reference_params, reference_omega)
    ok = dev < 1e-10
    report("sensing-error identity", ok,
           f"max residual {dev:.3e} over 3 decades (tolerance 1e-10)")


def test_acceptance_6_commutator_preservation(reference_params, reference_omega):
    net = build_sensor_network(reference_params, None, reference_omega)
    full = check_commutators(net, solve(net))
    toys = toy_commutators(reference_omega)
    worst = max(full, toys)
    ok = worst < 1e-10
    report("commutator preservation", ok,
           f"sensor {full:.3e}, toys {toys:.3e} (tolerance 1e-10)")


def test_acceptance_7_matching_optimum(reference_params, reference_omega):
    p, w = reference_params, reference_omega
    closed = optimal_matching(p, w)
    ratio, value = numerical_matching(p, w)
    loc = abs(ratio - closed.ratio_opt) / closed.ratio_opt
    val = abs(value - closed.sigma_opt) / closed.sigma_opt
    q = p.with_(R_a=closed.ratio_opt * p.r_m)
    delta = q.delta(w)
    theta_a = effective_temperature(q.T_a, q.omega_t)
    back = 8.0 * q.H_m * (q.R_a / q.r_m) * theta_a
    sens = (2.0 * q.H_m * (1.0 + delta * delta)
            * (w / q.omega_t) ** 2 * (q.r_m / q.R_a) * theta_a)
    detection = abs(back - sens) / back
    ok = loc < 1e-6 and val < 1e-6 and detection < 1e-9
    report("matching optimum", ok,
           f"location {loc:.3e}, value {val:.3e} (tolerance 1e-6); "
           f"detection-term split {detection:.3e} (tolerance 1e-9)")


def test_acceptance_8_limits_suite(reference_params, reference_omega):
    worst_zero = 0.0
    worst_classical = 0.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = reference_omega * 10.0 ** rng.uniform(-3, 3)
        zero = effective_temperature(0.0, w)
        worst_zero = max(worst_zero, abs(zero - 0.5 * HBAR * abs(w)))
        # Classical limit: pick T so that hbar w / 2 k_B T < 1e-6.
        t = HBAR * abs(w) / (2.0 * K_B * 1e-7)
        worst_classical = max(
            worst_classical,
            abs(effective_temperature(t, w) - K_B * t) / (K_B * t))
    decomposition = decomposition_consistency(
        sensor_noise_spectrum(*_draws(reference_params, reference_omega, 0, 200)))
    ok = worst_zero == 0.0 and worst_classical < 1e-12 and decomposition < 1e-12
    report("limits suite", ok,
           f"zero-point residual {worst_zero:.1e} (exact required), "
           f"classical-limit deviation {worst_classical:.3e} (tolerance 1e-12), "
           f"decomposition residual {decomposition:.3e} (tolerance 1e-12)")
