"""Network oracle: toy networks, solve diagnostics, oracle equivalence."""

import math

import numpy as np
import pytest

import coldamp.verify as verify
from coldamp.network import (
    _SENSOR_RELATIONS,
    _SENSOR_UNKNOWNS,
    _substitution_order,
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
from coldamp.sensor import estimator_coefficients, free_mass_coefficients, mechanical_impedance
from coldamp.servo import gain_for_effective_impedance
from coldamp.verify import ORACLE_TOL, max_rel_diff
from draws import draw_frequencies, draw_params

OMEGA = 2.0 * math.pi * 1e5


def _dense(net):
    """The entries of net as dense (..., n, n) and (..., n, m) stacks."""
    n, m = net.size
    points = np.shape(net.omega)
    a, b = np.zeros((*points, n, n), dtype=complex), np.zeros((*points, n, m), dtype=complex)
    for matrix, entries in ((a, net.a), (b, net.b)):
        for (i, j), value in entries.items():
            matrix[..., i, j] = value
    return a, b


def oracle_rows(p, omega, gain=None):
    """Normalized (velocity, detected) rows of the solved sensor network."""
    net = build_sensor_network(p, gain, omega)
    rows = solve(net).transfer_rows
    return normalized_row(net, rows["velocity"]), normalized_row(net, rows["detected"])


def test_matched_junction_swaps_ports():
    net = build_matched_junction(50.0, 50.0, OMEGA)
    res = solve(net)
    assert np.allclose(res.s_matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert check_commutators(net, res) < 1e-14


def test_unmatched_junction_is_unitary():
    net = build_matched_junction(50.0, 800.0, OMEGA)
    res = solve(net)
    assert check_commutators(net, res) < 1e-12
    # Reflection coefficient of a resistive mismatch.
    expected = (800.0 - 50.0) / (800.0 + 50.0)
    assert res.s_matrix[0, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_junction_stack_equals_its_scalar_builds():
    """An (N,) r_2 stacks the junctions: entry for entry the scalar builds'."""
    stack = build_matched_junction(50.0, np.array([50.0, 800.0]), OMEGA)
    for k, r_2 in enumerate((50.0, 800.0)):
        single = build_matched_junction(50.0, r_2, OMEGA)
        for name in ("a", "b"):
            entries = getattr(stack, name)
            assert entries.keys() == getattr(single, name).keys()
            for key, value in getattr(single, name).items():
                assert np.broadcast_to(entries[key], (2,))[k] == value, (name, key)
        assert stack.omega[k] == single.omega


def test_open_line_reflects_everything():
    net = build_open_line(120.0, OMEGA)
    res = solve(net)
    assert res.s_matrix[0, 0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert check_commutators(net, res) < 1e-14


def test_solver_residual_and_flag(reference_params, reference_omega):
    net = build_sensor_network(reference_params, None, reference_omega)
    res = solve(net)
    # The design point mixes 1e14-ohm and 1e-5 kg/s scales; the raw
    # matrix is ill-conditioned, yet the solve is accurate (the
    # oracle-agreement tests hold it to 1e-10).
    assert list(net.outgoing) == ["m", "l1", "l2"]
    assert res.s_matrix.shape == (3, len(LINE_LABELS))
    assert np.isfinite(res.s_matrix).all()


def test_singular_network_error_carries_diagnostics():
    net = LinearNetwork(
        a={(0, 0): 1 + 0j, (0, 1): 1 + 0j, (1, 0): 2 + 0j, (1, 1): 2 + 0j},
        b={(0, 0): 1 + 0j, (1, 0): 2 + 0j},
        size=(2, 1),
        incoming=["p"],
        outgoing={"p": 0},
        omega=123.0,
    )
    with pytest.raises(NetworkSolveError) as err:
        solve(net)
    assert err.value.omega == 123.0


@pytest.mark.filterwarnings("error")
def test_non_finite_solution_is_a_solve_error():
    net = LinearNetwork(
        a={(0, 0): 1 + 0j}, b={(0, 0): complex(math.inf)}, size=(1, 1),
        incoming=["p"], outgoing={"p": 0}, omega=5.0,
    )
    with pytest.raises(NetworkSolveError, match="non-finite") as err:
        solve(net)
    assert err.value.omega == 5.0


def _stack(a, b):
    """A 3-point stack of 2x2 networks at omega = 1, 2, 3 rad/s; each entry is a
    list of its 3 values."""
    return LinearNetwork(a={key: np.array(v, dtype=complex) for key, v in a.items()},
                         b={key: np.array(v, dtype=complex) for key, v in b.items()},
                         size=(2, 1), incoming=["p"], outgoing={"p": 0},
                         omega=np.array([1.0, 2.0, 3.0]))


@pytest.mark.filterwarnings("error")
def test_stacked_solve_errors_name_the_failing_point():
    one, b = [1.0] * 3, {(0, 0): [1.0] * 3, (1, 0): [1.0] * 3}
    # The identity, but [[1, 1], [2, 2]] at the second point.
    singular = {(0, 0): one, (0, 1): [0.0, 1.0, 0.0], (1, 0): [0.0, 2.0, 0.0],
                (1, 1): [1.0, 2.0, 1.0]}
    with pytest.raises(NetworkSolveError, match="singular") as err:
        solve(_stack(singular, b))
    assert err.value.omega == 2.0 and np.ndim(err.value.omega) == 0
    non_finite = {**b, (0, 0): [1.0, 1.0, math.nan]}
    with pytest.raises(NetworkSolveError, match="non-finite") as err:
        solve(_stack({(0, 0): one, (1, 1): one}, non_finite))
    assert err.value.omega == 3.0 and np.ndim(err.value.omega) == 0


def test_substitution_orders_of_the_layouts(reference_params, reference_omega):
    """Substitutions and the dense block of each network layout.

    Only the closed-loop sensor and the matched junction have a
    feedback loop; the closed loop's runs through the velocity, the
    quadrature-2 transducer current, the feedback element and the
    detection line back to the feedback force.
    """
    p, w = reference_params, reference_omega
    gain = gain_for_effective_impedance(p, 1e4 * p.H_m, w)
    layouts = {"open": (build_sensor_network(p, None, w), 16, 0),
               "closed": (build_sensor_network(p, gain, w), 10, 6),
               "junction": (build_matched_junction(50.0, 800.0, w), 0, 5),
               "line": (build_open_line(120.0, w), 3, 0)}
    for name, (net, steps, block) in layouts.items():
        a = _dense(net)[0]
        order = _substitution_order(len(a), zip(*np.nonzero(a)))
        assert (len(order.steps), len(order.block_cols)) == (steps, block), name
        for r, c, others in order.steps:
            assert set(np.flatnonzero(a[r])) == {c, *others}, name
    a = _dense(layouts["closed"][0])[0]
    order = _substitution_order(len(a), zip(*np.nonzero(a)))
    assert {_SENSOR_UNKNOWNS[c] for c in order.block_cols} == \
        {"V", "m_out", "I_t2", "I_f2", "U_r1", "r1_out"}


@pytest.mark.filterwarnings("error")
def test_zero_pivot_names_its_point(reference_params, reference_omega):
    """A zero xi_m at one point of a sensor stack is a singular matrix there,
    reported with that point's frequency and no floating-point warning."""
    ws = reference_omega * np.array([0.5, 1.0, 2.0])
    net = build_sensor_network(reference_params, None, ws)
    net.a[0, _SENSOR_UNKNOWNS.index("V")][1] = 0.0     # xi_m of the equation of motion
    with pytest.raises(NetworkSolveError, match="singular") as err:
        solve(net)
    assert err.value.omega == ws[1]


def _lapack_solve(net):
    """The dense reference: LAPACK on the raw matrix plus one float64 refinement step."""
    a, b = _dense(net)
    x = np.linalg.solve(a, b)
    return x + np.linalg.solve(a, b - a @ x)


@pytest.mark.parametrize("seed, draws", [(0, 1000), (173518645, 20), (519218416, 20),
                                         (1987374907, 20)])
def test_substitution_solve_agrees_with_lapack(reference_params, reference_omega, seed, draws):
    """Over gate 3's stream and the hard seeds, the substitution solve and the
    dense refined LAPACK solve agree within ORACLE_TOL on the normalized
    transfer rows and on the S rows."""
    grid, ws = verify._draws(reference_params, reference_omega, seed, draws)
    grid_net = build_sensor_network(grid, None, ws)
    for start in range(0, len(grid_net.omega), verify._BLOCK):
        net = verify._rows(grid_net, slice(start, start + verify._BLOCK))
        res, x = solve(net), _lapack_solve(net)
        for name, j in net.observables.items():
            assert max_rel_diff(normalized_row(net, x[:, j]),
                                normalized_row(net, res.transfer_rows[name])) < ORACLE_TOL, name
        s = x[:, list(net.outgoing.values()), :len(net.incoming)]
        assert max_rel_diff(s, res.s_matrix) < ORACLE_TOL


def test_square_system_enforced():
    for a, b in [
        ({(0, 0): 1 + 0j, (0, 1): 1 + 0j}, {(0, 0): 1 + 0j}),   # more unknowns than relations
        ({(0, 0): 1 + 0j}, {(1, 0): 1 + 0j}),                   # a relation b has and a lacks
        ({(0, 0): 1 + 0j}, {(0, 1): 1 + 0j}),                   # more inputs than b has
    ]:
        with pytest.raises(ValueError, match="square"):
            LinearNetwork(a=a, b=b, size=(1, 1), incoming=["p"], outgoing={"p": 0}, omega=1.0)


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
    net = build_sensor_network(q, None, reference_omega)
    res = solve(net)
    m = list(net.outgoing).index("m")
    for k, label in enumerate(LINE_LABELS):
        if label != "m":
            assert abs(res.s_matrix[m, k]) < 1e-12
    row = res.transfer_rows["velocity"]
    for k, label in enumerate(LINE_LABELS):
        if label != "m":
            assert row[k] == 0.0


def test_full_sensor_commutators(reference_params, reference_omega):
    net = build_sensor_network(reference_params, None, reference_omega)
    assert net.conjugated == {"b1", "b2"}
    assert check_commutators(net, solve(net)) < 1e-10


def test_sensor_commutators_need_the_conjugated_lines(reference_params, reference_omega):
    """Negative control: taking b1, b2 as plain inputs fails the check.

    The b columns of S reach |S| ~ 9.3 at the reference design, so the
    figure rises from rounding level to about 0.99.
    """
    net = build_sensor_network(reference_params, None, reference_omega)
    res = solve(net)
    plain = net.replace(conjugated=frozenset())
    assert check_commutators(plain, res) == pytest.approx(0.99, abs=0.01)


def test_passive_row_commutators_catch_a_1e9_error(reference_params, reference_omega):
    """Negative control: a 1e-9 error in one loss-line relation fails the check."""
    net = build_sensor_network(reference_params, None, reference_omega)
    (row,) = [r for r, c in net.a if c == net.outgoing["l1"]]   # the l1_out relation
    net.b[row, net.incoming.index("l1")] *= 1.0 + 1e-9
    assert check_commutators(net, solve(net)) >= ORACLE_TOL


def test_refinement_step_is_needed(reference_params, reference_omega):
    """Negative control: plain LAPACK on the raw matrix misses ORACLE_TOL.

    Draw 190, frequency 7 of oracle_agreement's seed-0 stream (the
    acceptance gate's stream): the unrefined LAPACK velocity row is off
    by 5.8e-10; the substitution solve is off by 2e-16.
    """
    rng = np.random.default_rng(0)
    for i in range(191):
        q = draw_params(reference_params, rng) if i else reference_params
        w = draw_frequencies(reference_omega, rng, count=10)[7]
    net = build_sensor_network(q, None, w)
    lam = free_mass_coefficients(q, w)
    plain = np.linalg.solve(*_dense(net))[net.observables["velocity"]]
    assert max_rel_diff(lam, normalized_row(net, plain)) > ORACLE_TOL
    refined = solve(net).transfer_rows["velocity"]
    assert max_rel_diff(lam, normalized_row(net, refined)) < 1e-14


def test_feedback_block_refinement_is_needed(reference_params, reference_omega):
    """Negative control for the refinement of the closed loop's dense block.

    Draw 36, frequency 6 of the per-draw stream of seed 0, closed at
    H_me = 1e3 H_m: plain LAPACK misses ORACLE_TOL on the detected row
    (3.6e-10, and the same with the block alone solved unrefined); the
    substitution solve with the refined block is off by 3e-16.
    """
    rng = np.random.default_rng(0)
    for i in range(37):
        q = draw_params(reference_params, rng) if i else reference_params
        w = draw_frequencies(reference_omega, rng, count=10)[6]
    net = build_sensor_network(q, gain_for_effective_impedance(q, 1e3 * q.H_m, w), w)
    mu = estimator_coefficients(q, w)
    plain = np.linalg.solve(*_dense(net))[net.observables["detected"]]
    assert max_rel_diff(mu, normalized_row(net, plain)) > ORACLE_TOL
    assert max_rel_diff(mu, normalized_row(net, solve(net).transfer_rows["detected"])) < 1e-14


def test_closed_loop_estimator_row_is_gain_independent(reference_params, reference_omega):
    """The normalized detected row equals the open-loop estimator at any gain."""
    p, w = reference_params, reference_omega
    mu = estimator_coefficients(p, w)
    for ratio in (1e2, 1e5):
        gain = gain_for_effective_impedance(p, ratio * p.H_m, w)
        _, mu_closed = oracle_rows(p, w, gain=gain)
        assert max_rel_diff(mu, mu_closed) < 1e-10


def test_closed_loop_realizes_the_requested_impedance(reference_params, reference_omega):
    """With the gain from gain_for_effective_impedance, the loop's velocity
    response to F_ext is 1/(Xi_m + Xi_me): the requested Xi_me, damping or
    reactive, small or large, with its sign."""
    p, w = reference_params, reference_omega
    requested = np.array([1e-2, 1.0, 1e4, 1e7, 1e3j]) * p.H_m
    gains = np.array([gain_for_effective_impedance(p, xi_me, w) for xi_me in requested])
    net = build_sensor_network(p, gains, w)
    response = solve(net).transfer_rows["velocity"][:, len(LINE_LABELS)]    # F_ext's column
    realized = 1.0 / response - mechanical_impedance(p, w)
    assert np.abs(realized / requested - 1.0).max() < 1e-12


def test_sensor_entries_equal_their_complex_expressions(reference_params, reference_omega):
    """Entries built in real arithmetic are bit for bit the complex products they
    stand for, with Z_t = i x_t and Z_f = 1/(-i omega_t C_f)."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = draw_params(reference_params, rng)
        w = float(draw_frequencies(reference_omega, rng, count=1)[0])
        z_t, z_f, kt, wt = 1j * q.x_t(w), 1.0 / (-1j * q.omega_t * q.C_f), q.kappa_t, q.omega_t
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
    grid = reference_params.with_(**{name: np.array([getattr(q, name) for q in sets])
                                      for name in reference_params._fields})
    gains = np.array([gain_for_effective_impedance(q, 1e4 * q.H_m, w) for q, w in zip(sets, ws)])
    for gain in (None, gains):
        net = build_sensor_network(grid, gain, ws)
        per_set = [build_sensor_network(q, None if gain is None else gain[k], w)
                   for k, (q, w) in enumerate(zip(sets, ws))]
        for side in ("a", "b"):
            entries = getattr(net, side)
            assert all(getattr(n, side).keys() == entries.keys() for n in per_set), side
            for key, value in entries.items():
                assert np.array_equal(np.broadcast_to(value, ws.shape),
                                      [getattr(n, side)[key] for n in per_set]), (side, key)
        assert np.array_equal(net.omega, ws)


def test_sensor_entries_are_columns(reference_params, reference_omega):
    """A grid build holds each per-point entry as one (N,) complex128 column, one
    per named value, and each constant as a complex scalar; a single build
    holds only complex scalars.  The open loop has no feedback-force entry:
    35 entries in a, 36 in closed loop (at any gain, 0 included), 17 in b."""
    grid, ws = verify._draws(reference_params, reference_omega, 0, 3)
    for gain in (None, np.full(len(ws), 1e4 * reference_params.H_m)):
        net = build_sensor_network(grid, gain, ws)
        assert net.size == (len(_SENSOR_UNKNOWNS), len(LINE_LABELS) + 1)
        assert (len(net.a), len(net.b)) == (35 if gain is None else 36, 17)
        columns = {}
        for side, entries in enumerate((net.a, net.b)):
            columns_of = (_SENSOR_UNKNOWNS, (*LINE_LABELS, "F_ext"))[side]
            for i, relation in enumerate(_SENSOR_RELATIONS):
                for name, coef in relation[side].items():
                    value = entries.get((i, columns_of.index(name)))
                    if coef == "-gain" and gain is None:
                        assert value is None
                    elif isinstance(coef, str):
                        assert value.shape == (30,) and value.dtype == complex, coef
                        assert value is columns.setdefault(coef, value), coef
                    else:
                        assert type(value) is complex, coef
        single = build_sensor_network(reference_params, None if gain is None else 0.0,
                                      reference_omega)
        assert len(single.a) == len(net.a)
        assert {type(value) for value in (*single.a.values(), *single.b.values())} == {complex}


@pytest.mark.parametrize("damping, draws, zero_at", [
    pytest.param(None, 20, None, id="None"), pytest.param(1e4, 20, None, id="10000.0"),
    pytest.param(1e4, 2, 3, id="10000.0-gain-0-at-3")])
def test_stacked_solve_equals_each_point_solved_alone(reference_params, reference_omega,
                                                      damping, draws, zero_at):
    """A stack's scattering and transfer rows are, bit for bit, those of each of its
    points solved alone, in open loop and with the closed loop's dense block.

    A closed-loop point at gain 0 keeps the closed loop's order, in the stack
    and alone: the order comes from which entries the network holds, not from
    their values."""
    grid, ws = verify._draws(reference_params, reference_omega, 1987374907, draws)
    gains = None if damping is None else np.full(len(ws), damping * reference_params.H_m)
    if zero_at is not None:
        gains[zero_at] = 0.0
    res = solve(build_sensor_network(grid, gains, ws))
    for k, w in enumerate(ws.tolist()):
        q = grid.with_(**{name: float(v[k]) for name, v in vars(grid).items() if np.ndim(v)})
        alone = solve(build_sensor_network(q, None if gains is None else gains[k], w))
        assert np.array_equal(res.s_matrix[k], alone.s_matrix), k
        for name, row in alone.transfer_rows.items():
            assert np.array_equal(res.transfer_rows[name][k], row), (k, name)
