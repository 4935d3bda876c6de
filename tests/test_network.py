"""Network oracle: toy networks, solve diagnostics, oracle equivalence."""

import math
from dataclasses import fields

import numpy as np
import pytest

from coldamp.network import (
    _SENSOR_RELATIONS,
    _SENSOR_UNKNOWNS,
    LinearNetwork,
    NetworkSolveError,
    build_matched_junction,
    build_open_line,
    build_sensor_network,
    check_commutators,
    normalized_row,
    solve,
)
from coldamp.noise import LINE_LABELS
from coldamp.sensor import estimator_coefficients, free_mass_coefficients, max_rel_diff
from coldamp.servo import gain_for_effective_impedance
from coldamp.verify import ORACLE_TOL, draw_params, draw_frequencies

OMEGA = 2.0 * math.pi * 1e5


def oracle_rows(p, omega, gain=None):
    """Normalized (velocity, detected) rows of the solved sensor network."""
    rows = solve(build_sensor_network(p, gain, omega)).transfer_rows
    return normalized_row(rows["velocity"]), normalized_row(rows["detected"])


def test_matched_junction_swaps_ports():
    res = solve(build_matched_junction(50.0, 50.0, OMEGA))
    assert np.allclose(res.s_matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert check_commutators(res) < 1e-14


def test_unmatched_junction_is_unitary():
    res = solve(build_matched_junction(50.0, 800.0, OMEGA))
    assert check_commutators(res) < 1e-12
    # Reflection coefficient of a resistive mismatch.
    expected = (800.0 - 50.0) / (800.0 + 50.0)
    assert res.s_matrix[0, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_open_line_reflects_everything():
    res = solve(build_open_line(120.0, OMEGA))
    assert res.s_matrix[0, 0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert check_commutators(res) < 1e-14


def test_solver_residual_and_flag(reference_params, reference_omega):
    res = solve(build_sensor_network(reference_params, None, reference_omega))
    # The design point mixes 1e14-ohm and 1e-5 kg/s scales; the raw
    # matrix is ill-conditioned, yet the refined solve is accurate (the
    # oracle-agreement tests hold it to 1e-10).
    assert res.out_ports == ["m", "l1", "l2"]
    assert res.s_matrix.shape == (3, len(LINE_LABELS))
    assert np.isfinite(res.s_matrix).all()


def test_singular_network_error_carries_diagnostics():
    net = LinearNetwork(
        a=np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex),
        b=np.array([[1.0], [2.0]], dtype=complex),
        incoming=["p"],
        outgoing={"p": 0},
        conjugated={"p": False},
        omega=123.0,
    )
    with pytest.raises(NetworkSolveError) as err:
        solve(net)
    assert err.value.omega == 123.0


def test_non_finite_solution_is_a_solve_error():
    net = LinearNetwork(
        a=np.array([[1.0]], dtype=complex), b=np.array([[math.inf]], dtype=complex),
        incoming=["p"], outgoing={"p": 0}, conjugated={"p": False}, omega=5.0,
    )
    with pytest.raises(NetworkSolveError, match="non-finite") as err:
        solve(net)
    assert err.value.omega == 5.0


def _stack(a, b):
    """A 3-point stack of 2x2 networks at omega = 1, 2, 3 rad/s."""
    return LinearNetwork(a=a, b=b, incoming=["p"], outgoing={"p": 0},
                         conjugated={"p": False}, omega=np.array([1.0, 2.0, 3.0]))


def test_stacked_solve_errors_name_the_failing_point():
    a = np.array([np.eye(2)] * 3, dtype=complex)
    b = np.ones((3, 2, 1), dtype=complex)
    singular = a.copy()
    singular[1] = [[1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(NetworkSolveError, match="singular") as err:
        solve(_stack(singular, b))
    assert err.value.omega == 2.0 and np.ndim(err.value.omega) == 0
    non_finite = b.copy()
    non_finite[2, 0, 0] = math.nan
    with pytest.raises(NetworkSolveError, match="non-finite") as err:
        solve(_stack(a, non_finite))
    assert err.value.omega == 3.0 and np.ndim(err.value.omega) == 0


def test_square_system_enforced():
    for a, b in [
        (np.zeros((1, 2)), np.zeros((1, 1))),   # more unknowns than relations
        (np.zeros((2, 2)), np.zeros((1, 1))),   # b rows do not match a
    ]:
        with pytest.raises(ValueError, match="square"):
            LinearNetwork(
                a=a, b=b, incoming=["p"], outgoing={"p": 0},
                conjugated={"p": False}, omega=1.0,
            )


def test_rejects_zero_frequency(reference_params):
    with pytest.raises(ValueError):
        build_sensor_network(reference_params, None, 0.0)


def test_oracle_matches_closed_forms_at_reference(reference_params, reference_omega):
    lam = free_mass_coefficients(reference_params, reference_omega)
    mu = estimator_coefficients(reference_params, reference_omega)
    lam_oracle, mu_oracle = oracle_rows(reference_params, reference_omega)
    assert max_rel_diff(lam, lam_oracle) < 1e-10
    assert max_rel_diff(mu, mu_oracle) < 1e-10


def test_oracle_matches_closed_forms_over_draws(reference_params, reference_omega):
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = draw_params(reference_params, rng)
        for w in draw_frequencies(reference_omega, rng, count=4):
            lam = free_mass_coefficients(q, w)
            mu = estimator_coefficients(q, w)
            lam_oracle, mu_oracle = oracle_rows(q, w)
            assert max_rel_diff(lam, lam_oracle) < 1e-10
            assert max_rel_diff(mu, mu_oracle) < 1e-10


def test_qnd_reciprocity(reference_params, reference_omega):
    """Quadrature-2 and detection inputs do not perturb the velocity."""
    res = solve(build_sensor_network(reference_params, None, reference_omega))
    row = res.transfer_rows["velocity"]
    scale = np.abs(row).max()
    for label in ("a2", "b2", "l1", "l2", "r1", "r2"):
        assert abs(row[LINE_LABELS.index(label)]) < 1e-12 * scale


def test_decoupled_transducer_blocks(reference_params, reference_omega):
    """With no coupling the mechanical port scatters independently."""
    q = reference_params.with_(kappa_t=0.0)
    res = solve(build_sensor_network(q, None, reference_omega))
    m = res.out_ports.index("m")
    for k, label in enumerate(LINE_LABELS):
        if label != "m":
            assert abs(res.s_matrix[m, k]) < 1e-12
    row = res.transfer_rows["velocity"]
    for k, label in enumerate(LINE_LABELS):
        if label != "m":
            assert row[k] == 0.0


def test_full_sensor_commutators(reference_params, reference_omega):
    res = solve(build_sensor_network(reference_params, None, reference_omega))
    assert check_commutators(res) < 1e-10


def test_passive_row_commutators_catch_a_1e9_error(reference_params, reference_omega):
    """Negative control: a 1e-9 error in one loss-line relation fails the check."""
    net = build_sensor_network(reference_params, None, reference_omega)
    (row,) = np.flatnonzero(net.a[:, net.outgoing["l1"]])   # the l1_out relation
    net.b[row, net.incoming.index("l1")] *= 1.0 + 1e-9
    assert check_commutators(solve(net)) >= ORACLE_TOL


def test_refinement_step_is_needed(reference_params, reference_omega):
    """Negative control: a plain LAPACK solve misses ORACLE_TOL at one point.

    Draw 190, frequency 7 of oracle_agreement's seed-0 stream (the
    acceptance gate's stream): unrefined, the velocity row is off by
    5.8e-10; the refined solve is off by 2e-16.
    """
    rng = np.random.default_rng(0)
    for i in range(191):
        q = draw_params(reference_params, rng) if i else reference_params
        w = draw_frequencies(reference_omega, rng, count=10)[7]
    net = build_sensor_network(q, None, w)
    lam = free_mass_coefficients(q, w)
    plain = np.linalg.solve(net.a, net.b)[net.observables["velocity"]]
    assert max_rel_diff(lam, normalized_row(plain)) > ORACLE_TOL
    refined = solve(net).transfer_rows["velocity"]
    assert max_rel_diff(lam, normalized_row(refined)) < 1e-14


def test_closed_loop_estimator_row_is_gain_independent(reference_params, reference_omega):
    """The normalized detected row equals the open-loop estimator at any gain."""
    p, w = reference_params, reference_omega
    mu = estimator_coefficients(p, w)
    for ratio in (1e2, 1e5):
        gain = gain_for_effective_impedance(p, ratio * p.H_m, w)
        _, mu_closed = oracle_rows(p, w, gain=gain)
        assert max_rel_diff(mu, mu_closed) < 1e-10


def test_sensor_entries_equal_their_complex_expressions(reference_params, reference_omega):
    """Entries built in real arithmetic are bit for bit the complex products they
    stand for, with Z_t = i x_t and Z_f = 1/(-i omega_t C_f)."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = draw_params(reference_params, rng)
        w = float(draw_frequencies(reference_omega, rng, count=1)[0])
        z_t, z_f, kt, wt = 1j * q.x_t(w), q.z_f, q.kappa_t, q.omega_t
        expected = {"xi_m": q.H_m - 1j * q.M * w + 1j * q.K / w, "1j*kt*x_t": kt * z_t,
                    "-1j*x_t": -z_t, "2*kt*x_t*wt/omega": -2j * kt * z_t * wt / w,
                    "zf_mag": -1j * z_f, "-zf_mag": 1j * z_f}
        a = build_sensor_network(q, None, w).a
        checked = set()
        for i, (lhs, _) in enumerate(_SENSOR_RELATIONS):
            for unknown, coef in lhs.items():
                if coef in expected:
                    assert a[i, _SENSOR_UNKNOWNS.index(unknown)] == expected[coef], coef
                    checked.add(coef)
        assert checked == expected.keys()


def test_grid_network_equals_stacked_per_set_builds(reference_params, reference_omega):
    """A parameter grid with (N,) gains and frequencies builds, bit for bit, the
    stack of one build per point."""
    rng = np.random.default_rng(11)
    sets = [draw_params(reference_params, rng) for _ in range(6)]
    ws = draw_frequencies(reference_omega, rng, count=len(sets))
    grid = reference_params.grid(**{f.name: np.array([getattr(q, f.name) for q in sets])
                                    for f in fields(reference_params)})
    gains = np.array([gain_for_effective_impedance(q, 1e4 * q.H_m, w) for q, w in zip(sets, ws)])
    for gain in (None, gains):
        net = build_sensor_network(grid, gain, ws)
        per_set = [build_sensor_network(q, None if gain is None else gain[k], w)
                   for k, (q, w) in enumerate(zip(sets, ws))]
        assert np.array_equal(net.a, np.stack([n.a for n in per_set]))
        assert np.array_equal(net.b, np.stack([n.b for n in per_set]))
        assert np.array_equal(net.omega, ws)
