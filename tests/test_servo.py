"""Cold-damping servo closed forms and loop identities."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from coldamp.noise import HBAR, LINE_LABELS
from coldamp.ops import numpy_ops
import coldamp.verify as verify
from coldamp.sensor import cancelling_product_sum, estimator_coefficients, mechanical_impedance
from coldamp.servo import (WeakLoadingWarning, cold_damped_estimator, cold_damped_velocity,
                           gain_for_effective_impedance)
from coldamp.verify import max_rel_diff, sensing_error_identity
from coldamp.network import build_sensor_network, solve
from draws import draw_frequencies, draw_params

at = LINE_LABELS.index


def test_gain_inversion_round_trip(reference_params, reference_omega):
    """The gain maps back to its impedance through the servo's linear law,
    xi_me = -sqrt(2 omega_t / hbar R_r) 2 kappa_t Z_f G_s / Omega."""
    p, w = reference_params, reference_omega
    assert gain_for_effective_impedance(p, 0.0, w) == 0.0
    target = 1e3 * p.H_m
    gain = gain_for_effective_impedance(p, target, w)
    doubled = gain_for_effective_impedance(p, 2.0 * target, w)
    assert doubled == pytest.approx(2.0 * gain, rel=1e-14, abs=0.0)
    z_f = 1j * p.zf_mag
    eff = -math.sqrt(2.0 * p.omega_t / (HBAR * p.R_r)) * 2.0 * p.kappa_t * z_f / w * gain
    assert eff == pytest.approx(target, rel=1e-12, abs=0.0)
    assert eff.real == pytest.approx(target, rel=1e-12, abs=0.0)
    assert abs(eff.imag * reference_omega) < 1e-12 * abs(target) * reference_omega


def test_velocity_table_structure(reference_params, reference_omega):
    p, w = reference_params, reference_omega
    table = cold_damped_velocity(p, w)
    assert table[at("m")] == 0.0
    assert table[at("l1")] == 0.0
    assert table[at("r2")] == 0.0
    # The detection line enters with normalized coefficient -1.
    r1 = math.sqrt(HBAR * p.R_r / (2.0 * p.omega_t)) * w / (2.0 * p.kappa_t * 1j * p.zf_mag)
    assert table[at("r1")] == pytest.approx(r1, rel=1e-15, abs=0.0)
    assert table[at("a1")] == -table[at("b1")]
    assert table[at("a1")] / table[at("r1")] == pytest.approx(
        -2.0 * math.sqrt(p.R_a / p.R_r), rel=1e-15, abs=0.0)
    with pytest.raises(ValueError):
        cold_damped_velocity(p.with_(kappa_t=0.0), w)


def test_loaded_output_warning(reference_params, reference_omega):
    heavy = reference_params.with_(R_r=0.1 * reference_params.zf_mag)
    with pytest.warns(UserWarning, match="weakly loaded"):
        cold_damped_velocity(heavy, reference_omega)


@pytest.mark.parametrize("table", [cold_damped_velocity, cold_damped_estimator])
def test_loaded_output_warns_once_at_the_caller(table, reference_params, reference_omega):
    heavy = reference_params.with_(R_r=0.1 * reference_params.zf_mag)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table(heavy, reference_omega)
    loading = [w for w in caught if issubclass(w.category, WeakLoadingWarning)]
    assert [Path(w.filename).name for w in loading] == [Path(__file__).name]


def test_estimator_equality_reference(reference_params, reference_omega):
    mu = estimator_coefficients(reference_params, reference_omega)
    mu_cd = cold_damped_estimator(reference_params, reference_omega)
    assert max_rel_diff(mu, mu_cd) < 1e-12


def test_estimator_equality_over_draws(reference_params, reference_omega):
    rng = np.random.default_rng(11)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            q = draw_params(reference_params, rng)
            for w in draw_frequencies(reference_omega, rng, count=2):
                mu = estimator_coefficients(q, w)
                assert max_rel_diff(mu, cold_damped_estimator(q, w)) < 1e-12


@pytest.mark.parametrize("seed", [7, 1176, 18, 184, 1996521377, 700416346,
                                  173518645, 519218416, 1987374907])
def test_both_routes_share_re_mu_a1_where_the_bracket_cancels(reference_params,
                                                              reference_omega, seed):
    """On the hard seeds' grids, the open- and closed-loop Re mu_a1 are one value
    bit for bit wherever the bracket cancels.  The first six are the loop gate's:
    its seeds now, then three of its former seeds each plus one (it once drew its
    own grid at seed + 1); the last three are the oracle's."""
    q, ws = verify._draws(reference_params, reference_omega, seed, 20)
    cancels = cancelling_product_sum(numpy_ops(), (q.C_f, q.K), (-q.C_f, q.M, ws, ws),
                                     (-2.0, q.kappa_t, q.kappa_t))[0]
    assert cancels.any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # the loop's weak-loading precondition
        open_a1 = estimator_coefficients(q, ws)[cancels, at("a1")]
        closed_a1 = cold_damped_estimator(q, ws)[cancels, at("a1")]
    assert open_a1.real.tolist() == closed_a1.real.tolist()


def test_sensing_identity_three_decades(reference_params, reference_omega):
    for w in reference_omega * np.logspace(-1.5, 1.5, 40):
        assert sensing_error_identity(reference_params, w) < 1e-10


def test_finite_gain_richardson_extrapolation(reference_params, reference_omega):
    """The finite-gain network solve converges to the infinite-gain table.

    Convergence is first order in 1/|G_s|, so the two-point Richardson
    combination 2 c(2G) - c(G) removes the leading error; at a loop gain
    giving H_me/H_m = 1e6 the extrapolated coefficients match the
    infinite-gain closed form to 1e-6 relative.
    """
    p, w = reference_params, reference_omega

    def velocity_row(ratio):
        gain = gain_for_effective_impedance(p, ratio * p.H_m, w)
        row = solve(build_sensor_network(p, gain, w)).transfer_rows["velocity"]
        return row[:len(LINE_LABELS)]

    extrapolated = 2.0 * velocity_row(2e6) - velocity_row(1e6)
    target = cold_damped_velocity(p, w)
    assert max_rel_diff(target, extrapolated) < 1e-6


def test_force_decomposition_route(reference_params, reference_omega):
    """Xi_m (V_fr - V_cd) reproduces the estimator coefficients."""
    p, w = reference_params, reference_omega
    xi = mechanical_impedance(p, w)
    from coldamp.sensor import free_mass_coefficients

    lam = free_mass_coefficients(p, w)
    v_cd = cold_damped_velocity(p, w)
    rebuilt = [lam[at(label)] - xi * v_cd[at(label)] for label in LINE_LABELS]
    mu = estimator_coefficients(p, w)
    assert max_rel_diff(mu, np.array(rebuilt)) < 1e-10
