"""Verification suite: gate honesty, typed errors and hard draws."""

import math
import tracemalloc

import numpy as np
import pytest

import coldamp.sensor as sensor
import coldamp.verify as verify
from coldamp.constants import HBAR
from coldamp.network import (build_matched_junction, build_open_line, build_sensor_network,
                             check_commutators, normalized_row, solve)
from coldamp.noise import LINE_LABELS
from coldamp.sensor import estimator_coefficients, free_mass_coefficients, mechanical_impedance
from coldamp.servo import cold_damped_velocity, gain_for_effective_impedance
from coldamp.verify import max_rel_diff
from draws import draw_frequencies, draw_params


def _agreement(grid, ws, mu=None, table=None):
    """oracle_agreement on a grid, with the closed-form tables run_checks would
    pass unless mu or table is given."""
    mu = estimator_coefficients(grid, ws) if mu is None else mu
    table = sensor.sensor_noise_spectrum(grid, ws) if table is None else table
    return verify.oracle_agreement(grid, ws, verify._oracle_rows(grid, ws), mu, table,
                                   sensor.line_spectra(grid, ws)[0])


def test_oracle_gate_catches_a_1e9_error(reference_params, reference_omega):
    """Negative control: every point is held to ORACLE_TOL, none relaxed."""
    grid, ws = verify._draws(reference_params, reference_omega, 0, 1)
    mu = estimator_coefficients(grid, ws)
    mu[..., LINE_LABELS.index("m")] *= 1.0 + 1e-9
    _, deviation, _, _ = _agreement(grid, ws, mu=mu)
    assert deviation >= verify.ORACLE_TOL


def test_finite_gain_on_a_closed_loop_draw(reference_params, reference_omega):
    """A closed-loop draw solves, fits -1, and its passive rows are not canonical.

    The noiseless feedback force is not a passive element, so the
    closed-loop m, l1, l2 rows need not preserve commutators; here they
    miss by about 0.31 at every gain, while the open loop passes.
    """
    rng = np.random.default_rng(4)
    q = draw_params(reference_params, rng)
    w = draw_frequencies(reference_omega, rng, count=1)[0]
    assert abs(verify.finite_gain_exponent(q, w) + 1.0) < verify.EXPONENT_TOL
    for ratio in (1e3, 1e7):
        gain = gain_for_effective_impedance(q, ratio * q.H_m, w)
        net = build_sensor_network(q, gain, w)
        assert check_commutators(net, solve(net)) == pytest.approx(0.31, abs=0.01)
    net = build_sensor_network(q, None, w)
    assert check_commutators(net, solve(net)) < verify.ORACLE_TOL


@pytest.mark.parametrize("draw", [False, True])
def test_stacked_finite_gain_equals_the_per_gain_solves(reference_params, reference_omega,
                                                        draw):
    """The five gains solve as one stack, bit for bit one solve per gain."""
    p, w = reference_params, reference_omega
    if draw:
        rng = np.random.default_rng(4)
        p = draw_params(p, rng)
        w = draw_frequencies(w, rng, count=1)[0]
    xi = abs(mechanical_impedance(p, w))
    gains = np.array([gain_for_effective_impedance(p, r * xi, w)
                      for r in (1e3, 1e4, 1e5, 1e6, 1e7)])
    stacked = solve(build_sensor_network(p, gains, w)).transfer_rows["velocity"]
    rows = [solve(build_sensor_network(p, g, w)).transfer_rows["velocity"] for g in gains]
    assert np.array_equal(stacked, np.stack(rows))
    target = cold_damped_velocity(p, w)
    devs = [np.abs(row[:len(target)] - target).max() / np.abs(target).max() for row in rows]
    slope = np.polyfit(np.log10(np.abs(gains)), np.log10(devs), 1)[0]
    assert verify.finite_gain_exponent(p, w) == slope


@pytest.mark.parametrize("draws", [1, 2, 20])
def test_draws_equal_the_per_draw_stream(reference_params, reference_omega, draws):
    """The stream drawn as one array is bit for bit draw_params and
    draw_frequencies called draw by draw."""
    for seed in [0, 1, 2, 173518645, 519218416, 1987374907, 1996521376, 90060358, 1384096408,
                 902664218, 1555450229, 1316148024, 436, 293]:   # the hard seeds below
        rng = np.random.default_rng(seed)
        sets, ws = [], []
        for i in range(draws):
            sets.append(draw_params(reference_params, rng) if i else reference_params)
            ws.append(draw_frequencies(reference_omega, rng, count=verify.FREQUENCIES))
        grid, grid_ws = verify._draws(reference_params, reference_omega, seed, draws)
        assert np.array_equal(grid_ws, np.concatenate(ws)), seed
        for name in grid._fields:
            column = np.broadcast_to(getattr(grid, name), grid_ws.shape)
            expected = np.repeat([getattr(q, name) for q in sets], verify.FREQUENCIES)
            assert np.array_equal(column, expected), (seed, name)


def test_draws_validate_every_set(reference_params, reference_omega):
    """A drawn set that overflows a field raises, as InstrumentParams would, and
    names the seed and the draw of the first failing set."""
    with pytest.raises(ValueError) as err:
        verify._draws(reference_params.with_(M=1e307), reference_omega, 0, 20)
    assert str(err.value) == "seed 0, draw 1: M must be finite, got inf"


def test_run_checks_draws_one_grid(reference_params, reference_omega, monkeypatch):
    """The oracle, loop-equality and decomposition checks share one call of _draws."""
    calls = []
    draws = verify._draws
    monkeypatch.setattr(verify, "_draws", lambda *args: calls.append(args) or draws(*args))
    verify.run_checks(reference_params, reference_omega, draws=3, seed=5)
    assert calls == [(reference_params, reference_omega, 5, 3)]


def test_run_checks_evaluate_each_closed_form_once_after_the_oracle(reference_params,
                                                                    reference_omega, monkeypatch):
    """One run_checks calls each closed form under test once on the draw grid, and
    none of them on it before the oracle's last block solve.  The spectrum is
    built from the one estimator table and the one set of line spectra: neither
    estimator_coefficients nor line_spectra runs again inside sensor."""
    draws = 30                  # 300 points: the oracle solves blocks of 256 and 44
    events = []

    def recorded(name, fn):
        def record(*args):      # (p, omega, ...), or (xp, p, omega, ...) for the spectrum
            events.append((name, np.size(args[2 if name == "spectrum" else 1])))
            return fn(*args)
        return record

    for module, name in ((verify, "free_lambda"), (verify, "estimator_mu"),
                         (verify, "closed_loop_mu"), (verify, "spectrum"),
                         (sensor, "estimator_coefficients"), (sensor, "line_spectra")):
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    solve_stack = verify.network.solve
    monkeypatch.setattr(verify.network, "solve", lambda net: events.append(
        ("solve", np.size(net.omega))) or solve_stack(net))
    verify.run_checks(reference_params, reference_omega, draws=draws, seed=0)
    on_grid = [i for i, (_, points) in enumerate(events) if points == draws * verify.FREQUENCIES]
    assert sorted(events[i][0] for i in on_grid) == ["closed_loop_mu", "estimator_mu",
                                                     "free_lambda", "line_spectra", "spectrum"]
    assert events[:2] == [("solve", 256), ("solve", 44)]
    assert min(on_grid) > 1


def test_decomposition_ignores_an_overflowing_sensitivity(reference_params, reference_omega):
    """At M = 1e-320 the acceleration sensitivity sqrt(sigma_ff)/M overflows; the
    decomposition check reads none of it and raises no RuntimeWarning."""
    results = verify.run_checks(reference_params.with_(M=1e-320), reference_omega,
                                draws=5, seed=0)
    assert [str(r) for r in results if not r.passed] == []


@pytest.mark.parametrize("parts", [{"back_action": math.inf, "interference": -math.inf},
                                   {"langevin": 1e308, "back_action": 1e308}])
def test_decomposition_gate_fails_a_point_out_of_the_float_range(reference_params,
                                                                 reference_omega, parts):
    """Components that overflow to opposite infinities, or whose exact sum
    overflows, at one point of a 2-point table read a nan deviation, which fails;
    the sum raises no error."""
    table = sensor.sensor_noise_spectrum(reference_params, reference_omega * np.array([1.0, 2.0]))
    deviation = verify.decomposition_consistency(table.replace(**{
        name: np.array([getattr(table, name)[0], value]) for name, value in parts.items()}))
    assert math.isnan(deviation)
    assert not verify.CheckResult("decomposition", deviation, verify.EQUALITY_TOL).passed


def test_decomposition_gate_fails_a_nan_point(reference_params, reference_omega):
    """A nan component at one point of the grid is a nan deviation, which fails."""
    table = sensor.sensor_noise_spectrum(*verify._draws(reference_params, reference_omega, 0, 3))
    deviation = verify.decomposition_consistency(
        table.replace(sensing=np.where(np.arange(len(table)) == 7, np.nan, table.sensing)))
    assert math.isnan(deviation)
    assert not verify.CheckResult("decomposition", deviation, verify.EQUALITY_TOL).passed


def test_run_checks_rejects_zero_coupling(reference_params, reference_omega):
    with pytest.raises(ValueError, match="kappa_t is 0"):
        verify.run_checks(reference_params.with_(kappa_t=0.0), reference_omega, draws=1)


@pytest.mark.parametrize("seed", [173518645, 519218416, 1987374907,
                                  1996521376, 90060358, 1384096408,
                                  902664218, 1555450229, 1316148024, 436, 293])
def test_run_checks_pass_at_hard_seeds(reference_params, reference_omega, seed):
    """The hardest seeds found pass every check at 20 draws.

    The first three are the hardest of 1500 random seeds for the dense
    LAPACK solve; with the substitution solve their worst estimator
    deviations are 1.7e-12, 8.2e-13 and 1.8e-12.  The next six failed the
    open/closed-loop estimator equality, on the separate grid it drew
    then, before the a1 bracket was evaluated exactly (up to 1.39e-11
    against EQUALITY_TOL); the last three of them come from the
    verify-oracle benchmark streams.  Over seeds 0-1499 of the one grid
    that every grid check shares, 436 reads the worst loop equality
    (1.05e-15) and 293 the worst decomposition sum (1.15e-15).
    """
    results = verify.run_checks(reference_params, reference_omega, draws=20, seed=seed)
    assert [str(r) for r in results if not r.passed] == []


def test_known_equality_flake(reference_params, reference_omega):
    """The worst equality seed for the rounded bracket reads at rounding level.

    The real part of the a1 entry, -kappa_t + C_f (K - M Omega^2) / 2
    kappa_t, can nearly cancel while the entry stays above max_rel_diff's
    1e-6 floor.  Seed 1176 is the one seed of 0-1499 where the open- and
    closed-loop routes, rounded term by term, differ by EQUALITY_TOL or
    more (1.59e-12); with the bracket evaluated exactly in each route they
    agree to 5.2e-16.  Seed 18 is the seed of 0-1499 where a guard of
    2^-10 of the largest term, in place of 1/2, leaves the routes furthest
    apart (1.37e-13).
    """
    results = verify.run_checks(reference_params, reference_omega, draws=20, seed=1176)
    assert [str(r) for r in results if not r.passed] == []
    for seed in (1176, 18):
        grid, ws = verify._draws(reference_params, reference_omega, seed, 20)
        assert verify.loop_estimator_equality(grid, ws, estimator_coefficients(grid, ws)) < 1e-14


def _plain_estimator(p, omega):
    """The open-loop estimator with the a1 bracket rounded term by term.

    Like both routes below, it evaluates a grid of draws at once, as
    loop_estimator_equality calls them.
    """
    mu = estimator_coefficients(p, omega)
    lam_a1 = free_mass_coefficients(p, omega)[..., LINE_LABELS.index("a1")]
    z_f = 1j * p.zf_mag
    a1 = lam_a1 + (np.sqrt(2.0 * HBAR * p.R_a * p.omega_t) * omega
                   * mechanical_impedance(p, omega) / (2.0 * p.kappa_t * p.omega_t * z_f))
    mu[..., LINE_LABELS.index("a1")], mu[..., LINE_LABELS.index("b1")] = a1, -a1
    return mu


def _plain_closed_loop(p, omega):
    """The closed-loop estimator, lambda - Xi_m V_cd, rounded term by term."""
    return (free_mass_coefficients(p, omega)
            - mechanical_impedance(p, omega)[..., None] * cold_damped_velocity(p, omega))


def test_equality_gate_catches_the_rounded_bracket(reference_params, reference_omega,
                                                   monkeypatch):
    """Negative control: both routes rounded term by term fail the equality gate."""
    monkeypatch.setattr(verify, "closed_loop_mu", _plain_closed_loop)
    grid, ws = verify._draws(reference_params, reference_omega, 1176, 20)
    dev = verify.loop_estimator_equality(grid, ws, _plain_estimator(grid, ws))
    assert dev >= verify.EQUALITY_TOL


def test_loop_gate_catches_the_rounded_bracket_below_equality_tol(reference_params,
                                                                 reference_omega, monkeypatch):
    """Negative control for LOOP_TOL: seed 7 is the first seed where both routes
    rounded term by term differ by LOOP_TOL or more but less than EQUALITY_TOL
    (2.98e-14), which EQUALITY_TOL would pass; with the exact bracket they
    agree to 5.8e-16."""
    grid, ws = verify._draws(reference_params, reference_omega, 7, 20)
    assert verify.loop_estimator_equality(grid, ws, estimator_coefficients(grid, ws)) \
        < verify.LOOP_TOL
    monkeypatch.setattr(verify, "closed_loop_mu", _plain_closed_loop)
    rounded = verify.loop_estimator_equality(grid, ws, _plain_estimator(grid, ws))
    assert verify.LOOP_TOL <= rounded < verify.EQUALITY_TOL
    monkeypatch.setattr(verify, "estimator_mu", _plain_estimator)
    (loop,) = [r for r in verify.run_checks(reference_params, reference_omega, draws=20, seed=7)
               if not r.passed]
    assert loop.name == "open/closed-loop estimator equality"


def _per_point_oracle(p, omega, seed, draws):
    """oracle_agreement written as one unstacked solve per point, and the closed
    forms at each point on the float path (Python floats, no numpy)."""
    rng = np.random.default_rng(seed)
    worst_lam = worst_mu = worst_comm = worst_split = 0.0
    for i in range(draws):
        q = draw_params(p, rng) if i else p
        for w in draw_frequencies(omega, rng, count=verify.FREQUENCIES).tolist():
            net = build_sensor_network(q, None, w)
            res = solve(net)
            lam = normalized_row(net, res.transfer_rows["velocity"])
            mu = normalized_row(net, res.transfer_rows["detected"])
            worst_lam = max(worst_lam, max_rel_diff(free_mass_coefficients(q, w), lam))
            worst_mu = max(worst_mu, max_rel_diff(estimator_coefficients(q, w), mu))
            worst_comm = max(worst_comm, check_commutators(net, res))
            worst_split = max(worst_split, verify._split_deviation(
                q, w, lam, mu, sensor.sensor_noise_spectrum(q, w), sensor.line_spectra(q, w)[0]))
    return worst_lam, worst_mu, worst_comm, worst_split


def test_stacked_oracle_equals_the_per_point_solve(reference_params, reference_omega):
    """Stacked solves and one numpy grid of closed forms over all draws give bit
    for bit the per-point figures of the float path."""
    for seed in [*range(100), 173518645, 519218416, 1987374907]:
        args = (reference_params, reference_omega, seed, 20)
        assert _agreement(*verify._draws(*args)) == _per_point_oracle(*args), seed


def test_toy_figure_equals_the_three_separate_solves():
    """Both junctions solved as one stack give, bit for bit, the worst of the
    three toy networks solved one by one, at 3000 log-uniform +-omega."""
    rng = np.random.default_rng(36)
    omegas = 10.0 ** rng.uniform(-12.0, 12.0, size=3000) * rng.choice([-1.0, 1.0], size=3000)
    for w in omegas.tolist():
        nets = (build_matched_junction(50.0, 50.0, w), build_matched_junction(50.0, 800.0, w),
                build_open_line(120.0, w))
        assert verify.toy_commutators(w) == max(check_commutators(n, solve(n)) for n in nets), w


def test_run_checks_builds_one_network_per_grid(reference_params, reference_omega, monkeypatch):
    """At 1000 draws (40 oracle slices) the sensor network is built twice:
    once on the grid and once for the finite-gain stack."""
    calls = []

    def counting(*args):
        calls.append(args)
        return build_sensor_network(*args)

    monkeypatch.setattr(verify.network, "build_sensor_network", counting)
    verify.run_checks(reference_params, reference_omega, draws=1000)
    assert [np.shape(omega) for _, _, omega in calls] == [(10_000,), ()]


def test_oracle_solve_peak_memory(reference_params, reference_omega):
    """The oracle over a 20-draw grid, one 200-point block, allocates at most
    1071 KiB at its peak: half of the 2142 KiB it took as dense matrix stacks."""
    grid, ws = verify._draws(reference_params, reference_omega, 0, 20)
    verify._oracle_rows(grid, ws)           # caches the substitution order
    tracemalloc.start()
    try:
        verify._oracle_rows(grid, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1071 * 1024


@pytest.mark.parametrize("seed", [0, 1987374907])
def test_oracle_is_block_size_invariant(reference_params, reference_omega, seed, monkeypatch):
    """Any block size, from one point to the whole 200-point grid in one stack
    and beyond, gives the identical four deviations."""
    args = (reference_params, reference_omega, seed, 20)
    results = set()
    for block in (1, 7, 64, 256, 200, 1000):
        monkeypatch.setattr(verify, "_BLOCK", block)
        results.add(_agreement(*verify._draws(*args)))
    assert len(results) == 1


def test_split_gate_catches_a_dropped_back_action(reference_params, reference_omega):
    """Negative control: sigma_vfr without its back action fails the velocity-split check."""
    grid, ws = verify._draws(reference_params, reference_omega, 0, 3)
    table = sensor.sensor_noise_spectrum(grid, ws)
    vfr = table.sigma_vfr * table.langevin / (table.langevin + table.back_action)
    split = _agreement(grid, ws, table=table.replace(sigma_vfr=vfr))[3]
    assert split >= verify.ORACLE_TOL


@pytest.mark.parametrize("component", ["langevin", "back_action", "sensing", "interference"])
def test_decomposition_gate_catches_a_scaled_component(reference_params, reference_omega,
                                                       component):
    """Negative control: one component of the spectrum off by 1e-9 fails the sum gate."""
    table = sensor.sensor_noise_spectrum(*verify._draws(reference_params, reference_omega, 2, 40))
    deviation = verify.decomposition_consistency(
        table.replace(**{component: getattr(table, component) * (1.0 + 1e-9)}))
    assert deviation >= verify.EQUALITY_TOL


def test_run_checks_catch_a_spectrum_without_back_action(reference_params, reference_omega,
                                                         monkeypatch):
    """Negative control through run_checks: a spectrum that drops the amplifier
    back action from sigma_vfr and from its components fails the velocity split
    and the decomposition sum, the two checks that read it, and no other."""
    def without_back_action(xp, p, omega, mu, lines):
        table = sensor._noise_spectrum(xp, p, omega, mu, lines)
        vfr = table.sigma_vfr * table.langevin / (table.langevin + table.back_action)
        return table.replace(sigma_vfr=vfr, back_action=0.0 * table.back_action)

    monkeypatch.setattr(verify, "spectrum", without_back_action)
    results = verify.run_checks(reference_params, reference_omega, draws=3, seed=0)
    assert [r.name for r in results if not r.passed] == ["oracle velocity split (vfr, vse, cross)",
                                                         "spectrum decomposition sum"]
