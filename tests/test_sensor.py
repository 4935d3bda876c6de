"""Open-loop sensor closed forms: coefficient tables and noise spectrum."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import coldamp.sensor as sensor
from coldamp import ops
from coldamp.budget import budget_point
from coldamp.constants import HBAR, K_B
from coldamp.noise import LINE_LABELS, effective_temperature
from coldamp.sensor import (
    cancelling_product_sum,
    coefficients,
    estimator_coefficients,
    free_mass_coefficients,
    line_spectra,
    mechanical_impedance,
    sensor_noise_spectrum,
)
from coldamp.verify import max_rel_diff
from draws import draw_frequencies, draw_params

at = LINE_LABELS.index


def test_mechanical_impedance_examples(reference_params, reference_omega):
    p = reference_params
    no_spring = p.with_(K=0.0)
    xi = mechanical_impedance(no_spring, reference_omega)
    assert xi == pytest.approx(p.H_m - 1j * p.M * reference_omega, rel=1e-14, abs=0.0)
    resonance = math.sqrt(p.K / p.M)
    assert mechanical_impedance(p, resonance) == pytest.approx(p.H_m, rel=1e-12, abs=0.0)
    xi = mechanical_impedance(p, reference_omega)
    assert xi.real == p.H_m
    assert xi.imag == pytest.approx(4.25e-4, rel=1e-2, abs=0.0)
    with pytest.raises(ValueError):
        mechanical_impedance(p, 0.0)


def test_free_mass_zero_pattern(reference_params, reference_omega):
    lam = free_mass_coefficients(reference_params, reference_omega)
    for label in ("a2", "b2", "r1", "r2", "l1", "l2"):
        assert lam[at(label)] == 0.0
    assert lam[at("a1")] == -lam[at("b1")]
    assert lam[at("a1")].real < 0.0
    assert lam[at("m")].real < 0.0


def test_decoupled_transducer(reference_params, reference_omega):
    lam = free_mass_coefficients(reference_params.with_(kappa_t=0.0), reference_omega)
    assert lam[at("a1")] == 0.0 and lam[at("b1")] == 0.0
    assert lam[at("m")] != 0.0
    with pytest.raises(ValueError):
        estimator_coefficients(reference_params.with_(kappa_t=0.0), reference_omega)


def test_estimator_structure(reference_params, reference_omega):
    p = reference_params
    lam = free_mass_coefficients(p, reference_omega)
    mu = estimator_coefficients(p, reference_omega)
    assert mu[at("m")] == lam[at("m")]
    assert mu[at("a1")] == -mu[at("b1")]
    assert mu[at("l1")] == 0.0 and mu[at("r2")] == 0.0
    # Every added term carries a factor Xi_m.
    xi = mechanical_impedance(p, reference_omega)
    for label in LINE_LABELS:
        diff = mu[at(label)] - lam[at(label)]
        if label in ("m",):
            assert diff == 0.0
        else:
            # diff / Xi_m must be finite and Xi_m-free; spot-check by
            # shrinking the mass parameters, which shrinks Xi_m.
            pass
    small = p.with_(M=p.M * 1e-8, K=p.K * 1e-8, H_m=p.H_m * 1e-8)
    mu_small = estimator_coefficients(small, reference_omega)
    lam_small = free_mass_coefficients(small, reference_omega)
    scale = max(abs(mu_small[at(label)]) for label in LINE_LABELS)
    for label in ("l2", "r1", "a2", "b2"):
        assert abs(mu_small[at(label)]) < 1e-6 * scale
    assert mu_small[at("a1")] == pytest.approx(lam_small[at("a1")], rel=1e-6, abs=0.0)


def test_sensing_terms_scale_with_xi_over_kappa(reference_params, reference_omega):
    p = reference_params
    mu = estimator_coefficients(p, reference_omega)
    mu10 = estimator_coefficients(p.with_(kappa_t=10.0 * p.kappa_t), reference_omega)
    # back action (in lambda part) grows with kappa, sensing terms shrink.
    assert abs(mu10[at("l2")]) == pytest.approx(abs(mu[at("l2")]) / 10.0, rel=1e-12, abs=0.0)
    assert abs(mu10[at("r1")]) == pytest.approx(abs(mu[at("r1")]) / 10.0, rel=1e-12, abs=0.0)


def test_spectrum_headline_and_decomposition(reference_params, reference_omega):
    b = sensor_noise_spectrum(reference_params, reference_omega)
    assert b.sigma_ff == pytest.approx(1.077e-25, rel=3e-3, abs=0.0)
    assert b.langevin / b.sigma_ff > 0.99
    parts = b.langevin + b.back_action + b.sensing + b.interference
    assert parts == pytest.approx(b.sigma_ff, rel=1e-12, abs=0.0)


def test_back_action_and_sensing_scaling(reference_params, reference_omega):
    p = reference_params
    b1 = sensor_noise_spectrum(p, reference_omega)
    b2 = sensor_noise_spectrum(p.with_(kappa_t=10.0 * p.kappa_t), reference_omega)
    assert b2.back_action == pytest.approx(100.0 * b1.back_action, rel=1e-12, abs=0.0)
    assert b2.sensing == pytest.approx(b1.sensing / 100.0, rel=1e-12, abs=0.0)


def test_vacuum_floor(reference_params, reference_omega):
    cold = reference_params.with_(T_m=0.0, T_a=0.0, T_l=0.0, T_r=0.0)
    b = sensor_noise_spectrum(cold, reference_omega)
    assert b.sigma_ff > 0.0
    assert b.langevin > 0.0 and b.back_action > 0.0 and b.sensing > 0.0


@pytest.mark.parametrize("temps", [
    dict(T_m=0.0, T_a=0.0, T_l=0.0, T_r=0.0),
    dict(T_m=0.0, T_r=30.0),
    dict(T_r=30.0),
], ids=["vacuum", "cold-mass", "reference"])
def test_line_spectra_in_the_quantum_and_classical_limits(temps, reference_params,
                                                          reference_omega):
    """Sigma_FF weights each |mu_a|^2 by its line's input spectrum.

    A line at T = 0 carries the vacuum 1/2; the other lines here are
    classical, kB T / (hbar |Omega|).  Electrical quadratures carry twice
    that at omega_t.  With the mass at T = 0 the electrical lines set the
    total, and T_r is moved off T_l so that the two lines are told apart.
    """
    p, w = reference_params.with_(**temps), reference_omega

    def limit(temperature, omega):
        return K_B * temperature / (HBAR * omega) if temperature else 0.5

    electrical = [p.T_a] * 4 + [p.T_r] * 2 + [p.T_l] * 2
    spectra = [limit(p.T_m, w)] + [2.0 * limit(t, p.omega_t) for t in electrical]
    expected = np.dot(np.abs(estimator_coefficients(p, w)) ** 2, spectra)
    assert sensor_noise_spectrum(p, w).sigma_ff == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_budget_point_evaluates_each_temperature_once(reference_params, reference_omega,
                                                      monkeypatch):
    """One k Theta per line element (m, a, l, r), not one per use."""
    calls = []

    def counting(temperature, omega):
        calls.append((temperature, omega))
        return effective_temperature(temperature, omega)

    for name, module in list(sys.modules.items()):
        if name.startswith("coldamp") and \
                getattr(module, "effective_temperature", None) is effective_temperature:
            monkeypatch.setattr(module, "effective_temperature", counting)
    budget_point(reference_params, reference_omega)
    assert len(calls) == 4


def test_decomposition_sum_over_draws(reference_params, reference_omega):
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = draw_params(reference_params, rng)
        for w in draw_frequencies(reference_omega, rng, count=2):
            b = sensor_noise_spectrum(q, w)
            parts = b.langevin + b.back_action + b.sensing + b.interference
            assert abs(parts - b.sigma_ff) / b.sigma_ff < 1e-12


def test_spectrum_equals_its_body_on_precomputed_tables(reference_params, reference_omega):
    """sensor_noise_spectrum is, bit for bit, its private body fed with
    estimator_coefficients and line_spectra, at a float point and on a grid."""
    rng = np.random.default_rng(5)
    q = draw_params(reference_params, rng)
    ws = draw_frequencies(reference_omega, rng, count=40)
    grid = reference_params.with_(R_a=reference_params.R_a * np.logspace(-2.0, 2.0, 40))
    for p, w in ((reference_params, reference_omega), (q, float(ws[0])), (q, ws), (grid, ws)):
        xp = ops.of(w, *vars(p).values())
        body = sensor._noise_spectrum(xp, p, w, estimator_coefficients(p, w), line_spectra(p, w))
        table = sensor_noise_spectrum(p, w)
        for name, column in vars(table).items():
            assert np.array_equal(getattr(body, name), column), name
            assert type(getattr(body, name)) is type(column), name


def test_line_spectra_take_a_list_as_the_array(reference_params):
    """A list of frequencies gives, bit for bit, the tables of the same numpy array."""
    omegas = [3e-3, 4e-3]
    listed, array = line_spectra(reference_params, omegas), line_spectra(reference_params,
                                                                         np.array(omegas))
    for mine, theirs in zip((listed[0], *listed[1]), (array[0], *array[1])):
        assert type(mine) is type(theirs) and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


def test_coefficient_vector_layout():
    """ops.FLOAT gives a tuple of 9 complex entries, ops.numpy_ops() an array."""
    table = coefficients(ops.FLOAT, a1=2.0, l2=-1j)
    assert type(table) is tuple and len(table) == len(LINE_LABELS)
    assert all(type(entry) is complex for entry in table)
    assert table[at("a1")] == 2.0 and table[at("l2")] == -1j
    assert np.count_nonzero(table) == 2
    array = coefficients(ops.numpy_ops(), a1=np.float64(2.0), l2=-1j)
    assert array.shape == (len(LINE_LABELS),) and array.dtype == complex
    assert array.tolist() == list(table)
    grid = coefficients(ops.numpy_ops(), a1=np.array([2.0, 3.0]), l2=-1j)
    assert grid.shape == (2, len(LINE_LABELS)) and grid[0].tolist() == list(table)
    with pytest.raises(ValueError):
        coefficients(ops.FLOAT, z9=1.0)
    # A structural zero is judged against the row scale, a large entry
    # against itself.
    assert max_rel_diff(table, coefficients(ops.FLOAT, a1=2.0, l2=-1j, m=1e-9)) == pytest.approx(
        5e-10, rel=1e-14, abs=0.0)
    assert max_rel_diff(table, coefficients(ops.FLOAT, a1=2.2, l2=-1j)) == pytest.approx(
        0.1, rel=1e-14, abs=0.0)


def test_max_rel_diff_scales_each_row_by_its_own_maximum():
    """A stack of rows reduces row by row; a global scale would hide the small row."""
    rng = np.random.default_rng(1)
    mine = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    mine[1] *= 1e-8
    theirs = mine * (1.0 + np.array([[1e-12], [1e-9]]) * rng.normal(size=(2, 9)))
    rows = [max_rel_diff(mine[k], theirs[k]) for k in range(2)]
    assert rows[1] > 1e-10 > rows[0]
    assert max_rel_diff(mine, theirs) == max(rows)


def test_cancelling_product_sum_is_exact_only_where_the_sum_cancels():
    eps = 2.0**-30
    # (1 + eps)^2 - 1 is 2 eps + eps^2 exactly; the float square drops eps^2.
    assert (1.0 + eps) * (1.0 + eps) - 1.0 == 2.0 * eps
    cancels, exact = cancelling_product_sum(ops.FLOAT, (1.0 + eps, 1.0 + eps), (-1.0,))
    assert cancels and exact == 2.0 * eps + eps * eps
    assert not cancelling_product_sum(ops.FLOAT, (1.0,), (-0.25,))[0]  # sum: 3/4 of its top term
    assert cancelling_product_sum(ops.FLOAT, (1.0,), (-0.75,)) == (True, 0.25)
    assert not cancelling_product_sum(ops.FLOAT, (math.nan,), (1.0,))[0]  # the caller's nan stands
    # Over a grid, only the cancelling points take the exact sum.
    x = np.array([1.0 + eps, 2.0, math.nan, 1.0 + eps])
    cancels, exact = cancelling_product_sum(ops.numpy_ops(), (x, x), (-1.0,))
    assert cancels.tolist() == [True, False, False, True]
    assert exact.tolist() == [2.0 * eps + eps * eps, 0.0, 0.0, 2.0 * eps + eps * eps]


def test_cancelling_product_sum_equals_the_fraction_sum():
    """Over 10^4 random triples, with zero and negative factors, the exact sum is
    the Fraction sum rounded once wherever the float sum cancels."""
    rng = np.random.default_rng(5)
    n = 10_000
    c, k, m, w = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n)
                  for _ in range(4))
    m[::3] = k[::3] / (w[::3] * w[::3]) * (1.0 + rng.uniform(-1e-9, 1e-9, m[::3].size))
    kt = np.sqrt(np.abs(c * k - c * m * w * w) / 2.0) * (1.0 + rng.uniform(-1e-6, 1e-6, n))
    c[::97], k[::89], kt[::83] = 0.0, 0.0, 0.0
    products = ((c, k), (-c, m, w, w), (-2.0, kt, kt))
    cancels, exact = cancelling_product_sum(ops.numpy_ops(), *products)
    assert 0.3 * n < cancels.sum() < n
    assert not exact[~cancels].any()
    at = np.flatnonzero(cancels)
    columns = [[np.broadcast_to(f, n)[at].tolist() for f in factors] for factors in products]
    reference = [float(sum(math.prod(Fraction(f[j]) for f in factors) for factors in columns))
                 for j in range(len(at))]
    assert exact[at].tolist() == reference


def _network(p, omega):
    from coldamp.network import build_sensor_network
    return build_sensor_network(p, None, omega)


def _cold_damped(p, omega):
    from coldamp.servo import cold_damped_velocity
    return cold_damped_velocity(p, omega)


def _delta(p, omega):
    return p.delta(omega)


def _gain(p, omega):
    from coldamp.servo import gain_for_effective_impedance
    return gain_for_effective_impedance(p, 1.0, omega)


def _open_line(p, omega):
    from coldamp.network import build_open_line
    return build_open_line(120.0, omega)


def _junction(p, omega):
    from coldamp.network import build_matched_junction
    return build_matched_junction(50.0, 50.0, omega)


@pytest.mark.parametrize("entry, omega, message", [
    (estimator_coefficients, math.inf, "frequency must be finite, got inf"),
    (free_mass_coefficients, math.nan, "frequency must be finite, got nan"),
    (_cold_damped, math.inf, "frequency must be finite, got inf"),
    (_network, math.inf, "frequency must be finite, got inf"),
    (sensor_noise_spectrum, -math.inf, "frequency must be finite, got -inf"),
    (budget_point, [1e-3, math.nan, 0.0], "frequency must be finite, got nan"),
    (estimator_coefficients, [1e-3, 0.0, math.inf], "frequency must be nonzero"),
    (_delta, math.inf, "frequency must be finite, got inf"),
    (_gain, math.inf, "frequency must be finite, got inf"),
    (_open_line, math.nan, "frequency must be finite, got nan"),
    (_junction, -math.inf, "frequency must be finite, got -inf"),
    (_delta, 0.0, "frequency must be nonzero"),
], ids=["estimator-inf", "free-mass-nan", "cold-damped-inf", "network-inf", "spectrum-minus-inf",
        "grid-first-bad-point-nan", "grid-first-bad-point-zero", "delta-inf", "gain-inf",
        "open-line-nan", "junction-minus-inf", "delta-zero"])
def test_closed_forms_reject_non_finite_frequencies(entry, omega, message, reference_params):
    """The check_frequency rule over arrays: the first bad point names the error."""
    with pytest.raises(ValueError) as err:
        entry(reference_params, omega)
    assert str(err.value) == message
