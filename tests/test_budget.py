"""Noise budget assembly, impedance matching, and parameter sweeps."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldamp import ops
from coldamp.budget import budget_point, sweep
from coldamp.matching import (
    MatchingError,
    MatchingResult,
    numerical_matching,
    optimal_matching,
    simplified_budget,
)
from coldamp.noise import effective_temperature
from coldamp.sensor import cancelling_product_sum, estimator_coefficients, free_mass_coefficients
from coldamp.servo import cold_damped_estimator
from draws import draw_frequencies, draw_params


def test_headline_force_noise(reference_params, reference_omega):
    point = budget_point(reference_params, reference_omega)
    assert point.sigma_ff == pytest.approx(1.1e-25, rel=0.03, abs=0.0)
    assert point.accel_sensitivity == pytest.approx(1.2e-12, rel=0.05, abs=0.0)
    assert point.delta == pytest.approx(32.693, rel=1e-3, abs=0.0)


def test_budget_terms_sum(reference_params, reference_omega):
    point = budget_point(reference_params, reference_omega)
    total_v = point.sigma_vfr + point.sigma_vse + point.sigma_cross
    xi2 = point.sigma_ff / total_v
    # sigma_ff is exactly the velocity budget mapped through the mechanics.
    assert point.sigma_ff == pytest.approx(xi2 * total_v, rel=1e-12, abs=0.0)
    assert point.sigma_ff == pytest.approx(
        point.langevin + point.back_action + point.sensing + point.interference,
        rel=1e-12, abs=0.0)


def test_budget_rejects_zero_frequency(reference_params):
    with pytest.raises(ValueError):
        budget_point(reference_params, 0.0)


def test_sideband_resolution_warning(reference_params):
    # Signal frequency within a factor 1e3 of the carrier triggers a warning.
    w = reference_params.omega_t / 100.0
    with pytest.warns(UserWarning):
        budget_point(reference_params, w)


def test_simplified_budget_matches_full_in_clean_limit(reference_params, reference_omega):
    """The three-term budget approaches the full one as parasitics vanish."""
    p = reference_params
    clean = p.with_(
        R_l=1e6 * p.R_a,
        R_r=1e-4,
        C_f=p.C_f * 1e-4,       # larger feedback impedance
        T_l=0.0,
        T_r=0.0,
    )
    full = budget_point(clean, reference_omega).sigma_ff
    simple = simplified_budget(clean, reference_omega)
    assert simple == pytest.approx(full, rel=1e-3, abs=0.0)


def test_optimal_matching_closed_form(reference_params, reference_omega):
    p, w = reference_params, reference_omega
    res = optimal_matching(p, w)
    assert isinstance(res, MatchingResult)
    delta = p.delta(w)
    expected_ratio = math.sqrt(1.0 + delta * delta) / 2.0 * abs(w) / p.omega_t
    assert res.ratio_opt == pytest.approx(expected_ratio, rel=1e-12, abs=0.0)
    theta_m = effective_temperature(p.T_m, w)
    theta_a = effective_temperature(p.T_a, p.omega_t)
    expected = (2.0 * p.H_m * theta_m
                + 8.0 * p.H_m * math.sqrt(1.0 + delta * delta)
                * (abs(w) / p.omega_t) * theta_a)
    assert res.sigma_opt == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert res.langevin_part + res.detection_part == pytest.approx(
        res.sigma_opt, rel=1e-12, abs=0.0)


def test_optimum_on_resonance(reference_params):
    """With no detuning the optimal ratio is half the sideband ratio."""
    p = reference_params
    w = 2.0 * math.pi * 1e-3
    q = p.with_(K=p.M * w * w)  # resonance: delta = 0
    res = optimal_matching(q, w)
    assert res.ratio_opt == pytest.approx(0.5 * abs(w) / p.omega_t, rel=1e-12, abs=0.0)


def test_detection_terms_equal_at_optimum(reference_params, reference_omega):
    """At the matched point the two detection terms are equal (AM-GM)."""
    p, w = reference_params, reference_omega
    res = optimal_matching(p, w)
    q = p.with_(R_a=res.ratio_opt * p.r_m)
    delta = q.delta(w)
    theta_a = effective_temperature(q.T_a, q.omega_t)
    back = 8.0 * q.H_m * (q.R_a / q.r_m) * theta_a
    sens = (2.0 * q.H_m * (1.0 + delta * delta)
            * (w / q.omega_t) ** 2 * (q.r_m / q.R_a) * theta_a)
    assert back == pytest.approx(sens, rel=1e-9, abs=0.0)
    assert simplified_budget(q, w) == pytest.approx(res.sigma_opt, rel=1e-12, abs=0.0)


def test_numerical_matching_agrees_with_closed_form(reference_params, reference_omega):
    closed = optimal_matching(reference_params, reference_omega)
    ratio, value = numerical_matching(reference_params, reference_omega)
    assert ratio == pytest.approx(closed.ratio_opt, rel=1e-6, abs=0.0)
    assert value == pytest.approx(closed.sigma_opt, rel=1e-6, abs=0.0)


def test_numerical_matching_far_from_reference(reference_params, reference_omega):
    """The search bracket follows the closed form: at 1e10 times the mass
    the optimum ratio is above 1, outside any fixed bracket under it."""
    heavy = reference_params.with_(M=reference_params.M * 1e10)
    closed = optimal_matching(heavy, reference_omega)
    assert closed.ratio_opt > 1e3
    ratio, value = numerical_matching(heavy, reference_omega)
    assert ratio == pytest.approx(closed.ratio_opt, rel=1e-6, abs=0.0)
    assert value == pytest.approx(closed.sigma_opt, rel=1e-6, abs=0.0)


def test_numerical_matching_edge_raises(reference_params, reference_omega, monkeypatch):
    """A minimum on the bracket edge is a numerical failure, not a result."""
    import coldamp.matching as matching

    monkeypatch.setattr(matching, "_reduced_budget", lambda p, omega, ratio: ratio)
    with pytest.raises(MatchingError, match="edge"):
        numerical_matching(reference_params, reference_omega)


def test_numerical_matching_evaluates_its_terms_once(reference_params, reference_omega,
                                                      monkeypatch):
    """One k Theta_m, one k Theta_a and the search's zero-point k Theta_m; no params copy."""
    import coldamp.matching as matching
    from coldamp.params import InstrumentParams

    calls = {"effective_temperature": 0, "with_": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matching, "effective_temperature",
                        counted("effective_temperature", effective_temperature))
    monkeypatch.setattr(InstrumentParams, "with_", counted("with_", InstrumentParams.with_))
    numerical_matching(reference_params, reference_omega)
    assert calls["effective_temperature"] <= 3
    assert calls["with_"] == 0


def test_matching_stationarity(reference_params, reference_omega):
    """Central differences confirm the closed-form optimum is stationary."""
    p, w = reference_params, reference_omega
    res = optimal_matching(p, w)
    r0 = res.ratio_opt

    def f(ratio):
        return simplified_budget(p.with_(R_a=ratio * p.r_m), w)

    h = 1e-5 * r0
    slope = (f(r0 + h) - f(r0 - h)) / (2.0 * h)
    curvature = (f(r0 + h) - 2.0 * f(r0) + f(r0 - h)) / (h * h)
    assert abs(slope) < 1e-6 * curvature * r0


def test_sweep_validation(reference_params, reference_omega):
    with pytest.raises(ValueError, match="empty"):
        sweep(reference_params, "R_a", [], omega=reference_omega)
    with pytest.raises(ValueError, match="increasing"):
        sweep(reference_params, "R_a", [2.0, 1.0], omega=reference_omega)
    with pytest.raises(ValueError, match="^parameter sweeps need an analysis frequency$"):
        sweep(reference_params, "R_a", [1.0, 2.0])
    # Only record fields are axes: not properties, methods or anything else.
    for axis in ("not_a_field", "z_f", "r_m", "delta", "with_"):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(reference_params, axis, [1.0], omega=reference_omega)


def test_sweep_preserves_order_and_values(reference_params, reference_omega):
    grid = [1e4, 1e5, 1e6]
    points = sweep(reference_params, "R_a", grid, omega=reference_omega)
    assert len(points) == 3
    for value, pt in zip(grid, points):
        direct = budget_point(reference_params.with_(R_a=value), reference_omega)
        assert pt.sigma_ff == pytest.approx(direct.sigma_ff, rel=1e-12, abs=0.0)


def test_budget_unimodal_across_matching(reference_params, reference_omega):
    """The detection budget falls then rises through the matched point."""
    p, w = reference_params, reference_omega
    cold = p.with_(T_m=0.0)
    r0 = optimal_matching(cold, w).ratio_opt * cold.r_m
    grid = np.geomspace(r0 * 1e-3, r0 * 1e3, 25)
    vals = [budget_point(cold.with_(R_a=r), w).sigma_ff for r in grid]
    k = int(np.argmin(vals))
    assert 0 < k < len(vals) - 1
    assert all(a >= b for a, b in zip(vals[:k], vals[1:k + 1]))
    assert all(a <= b for a, b in zip(vals[k:], vals[k + 1:]))


def test_loss_monotonicity(reference_params, reference_omega):
    """Budget does not improve when loss resistance drops or readout grows."""
    p, w = reference_params, reference_omega
    base = budget_point(p, w).sigma_ff
    assert budget_point(p.with_(R_l=p.R_l / 10.0), w).sigma_ff >= base
    assert budget_point(p.with_(R_r=p.R_r * 10.0), w).sigma_ff >= base


def test_langevin_floor(reference_params, reference_omega):
    """No draw beats the fluctuation-dissipation bound of the suspension."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        q = draw_params(reference_params, rng)
        pt = budget_point(q, reference_omega)
        floor = 2.0 * q.H_m * effective_temperature(q.T_m, reference_omega)
        assert pt.sigma_ff >= floor * (1.0 - 1e-12)


def test_detection_terms_linear_in_amplifier_temperature(reference_params, reference_omega):
    p, w = reference_params, reference_omega
    a = simplified_budget(p, w)
    floor = 2.0 * p.H_m * effective_temperature(p.T_m, w)
    b = simplified_budget(p.with_(T_a=2.0 * p.T_a), w)
    # At 1.5 K thermal >> zero-point, so doubling T_a doubles detection noise.
    assert (b - floor) == pytest.approx(2.0 * (a - floor), rel=1e-3, abs=0.0)


def test_acceleration_sensitivity_definition(reference_params, reference_omega):
    pt = budget_point(reference_params, reference_omega)
    expected = math.sqrt(pt.sigma_ff) / reference_params.M
    assert pt.accel_sensitivity == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_matching_without_coupling_is_a_value_error(reference_params, reference_omega):
    """R_m is undefined at kappa_t = 0; both matching helpers say so."""
    q = reference_params.with_(kappa_t=0.0)
    with pytest.raises(ValueError, match="kappa_t is 0"):
        simplified_budget(q, reference_omega)
    with pytest.raises(ValueError, match="kappa_t is 0"):
        numerical_matching(q, reference_omega)


@pytest.mark.parametrize("r_a, kappa_t, ratio", [(1e-300, 1e-150, "0"), (1e300, 1e150, "inf")])
def test_simplified_budget_where_r_a_over_r_m_leaves_the_float_range(
        r_a, kappa_t, ratio, reference_params, reference_omega):
    """R_a/R_m underflowing to 0 was a bare ZeroDivisionError, and overflowing an inf budget;
    both are one ValueError naming the ratio."""
    q = reference_params.with_(R_a=r_a, kappa_t=kappa_t)
    assert f"{q.R_a / q.r_m:g}" == ratio
    with pytest.raises(ValueError) as err:
        simplified_budget(q, reference_omega)
    assert str(err.value) == f"R_a/R_m leaves the float range: R_a = {r_a}, R_m = {q.r_m}"


def test_simplified_budget_that_overflows_is_a_value_error(reference_params, reference_omega):
    """A finite R_a/R_m whose back-action term overflows: a ValueError, not an inf budget."""
    with pytest.raises(ValueError, match=r"^the simplified budget leaves the float range: "
                                         r"Sigma = inf$"):
        simplified_budget(reference_params.with_(T_a=1e300, R_a=1e200), reference_omega)


def test_matching_search_past_the_largest_float_is_a_value_error(reference_params):
    """An optimum ratio near 1e303 puts the search's upper end past 1e308,
    where 10**log_ratio overflows: one ValueError naming the bracket."""
    q = reference_params.with_(omega_t=2.0 * math.pi * 8e-5)
    with pytest.raises(ValueError) as err:
        numerical_matching(q, 2.0 * math.pi * 8e148)
    assert str(err.value) == ("the matching search leaves the float range: "
                              "log10(R_a/R_m) in [300.718, 312.718]")


def _verify_draw(p, omega, seed, index, count=10):
    """Parameter set and sorted frequencies of draw `index` in verify's stream."""
    rng = np.random.default_rng(seed)
    for i in range(index + 1):
        q = draw_params(p, rng) if i else p
        ws = draw_frequencies(omega, rng, count=count)
    return q, np.sort(ws)


# Draw 4 of verify seed 1996521376 takes the exact a1 bracket at some of
# its frequencies but not all; the others are plain draws.
GRID_DRAWS = [(0, 0), (1996521376, 4), (173518645, 7), (11, 3)]


def _a1_guard(q, ws):
    return cancelling_product_sum(ops.of(ws, *vars(q).values()), (q.C_f, q.K),
                                  (-q.C_f, q.M, ws, ws), (-2.0, q.kappa_t, q.kappa_t))[0]


def test_a1_guard_fires_on_part_of_a_grid(reference_params, reference_omega):
    q, ws = _verify_draw(reference_params, reference_omega, *GRID_DRAWS[1])
    assert 0 < np.count_nonzero(_a1_guard(q, ws)) < len(ws)


def test_each_budget_picks_its_namespace_twice(reference_params, reference_omega,
                                               monkeypatch):
    """budget_point's type rule and sensor's _grid are the only ops.of calls, at one
    float point and over a numpy grid: the closed forms and their helpers under
    sensor_noise_spectrum take the namespace _grid picked (10 calls in sensor
    per point before)."""
    calls = []
    of = ops.of
    monkeypatch.setattr(ops, "of", lambda *values: calls.append(values) or of(*values))
    budget_point(reference_params, reference_omega)
    assert len(calls) == 2
    calls.clear()
    sweep(reference_params, "frequency", reference_omega * np.logspace(-1.0, 1.0, 50))
    assert len(calls) == 2


@pytest.mark.parametrize("seed, index", GRID_DRAWS)
def test_sweeps_equal_single_point_budgets_bit_for_bit(reference_params, reference_omega,
                                                        seed, index):
    """A numpy grid budget equals the float path's budget at each of its points,
    field by field, and the float path over a list gives the grid's columns."""
    q, ws = _verify_draw(reference_params, reference_omega, seed, index)
    omegas = ws.tolist()
    r_a = np.sort(q.R_a * 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0, 10)).tolist()
    assert ops.of(*omegas, *r_a, *vars(q).values()) is ops.FLOAT    # plain floats
    assert [_a1_guard(q, w) for w in omegas] == _a1_guard(q, ws).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # extreme draws may leave the sideband band
        cases = [
            (sweep(q, "frequency", ws), [budget_point(q, w) for w in omegas]),
            (sweep(q, "R_a", r_a, omega=omegas[3]),
             [budget_point(q.with_(R_a=r), omegas[3]) for r in r_a]),
        ]
        listed = budget_point(q, omegas)
    for grid, points in cases:
        assert len(grid) == len(points)
        for k, point in enumerate(points):
            values = tuple(vars(point).values())
            assert all(type(v) is float for v in values)
            assert tuple(vars(grid[k]).values()) == values
    assert vars(listed) == {name: column.tolist() for name, column in vars(cases[0][0]).items()}


@pytest.mark.parametrize("seed, index", GRID_DRAWS)
def test_coefficient_grids_equal_stacked_single_points(reference_params, reference_omega,
                                                       seed, index):
    q, ws = _verify_draw(reference_params, reference_omega, seed, index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # the loop's weak-loading precondition
        for table in (free_mass_coefficients, estimator_coefficients, cold_damped_estimator):
            stacked = np.array([table(q, w) for w in ws])
            assert table(q, ws).shape == stacked.shape == (len(ws), 9)
            assert np.array_equal(table(q, ws), stacked), table.__name__


def test_sweep_names_the_first_invalid_point(reference_params, reference_omega):
    with pytest.raises(ValueError, match=r"^sweep failed at K = -1\.0: "):
        sweep(reference_params, "K", [-1.0, 0.0, 1.0], omega=reference_omega)
    with pytest.raises(ValueError, match=r"^sweep failed at T_a = inf: "):
        sweep(reference_params, "T_a", [1.0, 2.0, math.inf], omega=reference_omega)
    with pytest.raises(ValueError, match=r"^sweep failed at frequency = 0\.0: .*nonzero"):
        sweep(reference_params, "frequency", [-1e-3, 0.0, 1e-3])
    with pytest.raises(ValueError, match=r"^sweep failed at kappa_t = 0\.0: "):
        sweep(reference_params, "kappa_t", [0.0, 1e-7], omega=reference_omega)
    with pytest.raises(ValueError, match="increasing"):
        sweep(reference_params, "R_a", [1e4, math.nan, 1e6], omega=reference_omega)
    # A failure at every point names none.
    with pytest.raises(ValueError) as err:
        sweep(reference_params.with_(kappa_t=0.0), "R_a", [1e4, 1e5], omega=reference_omega)
    assert str(err.value) == "the force estimator is undefined without electromechanical coupling"


@pytest.mark.parametrize("name, column, message", [
    ("M", [-1.0, 0.27], "M must be strictly positive, got -1.0"),
    ("K", [-1e3, 0.0], "K must be >= 0, got -1000.0"),
])
def test_a_grid_with_an_illegal_point_raises(reference_params, reference_omega,
                                             name, column, message):
    """Such grids gave budgets (1.08e-25 and 4.35e-18) when grids went unvalidated."""
    with pytest.raises(ValueError) as err:
        budget_point(reference_params.with_(**{name: np.array(column)}), reference_omega)
    assert str(err.value) == message


def test_a_budget_outside_the_float_range_raises(reference_params, reference_omega):
    """Finite K = 1e308 overflows K / Omega: a ValueError naming the column, not a
    nan row.  A sweep names its first such point and quotes that point's own
    error, sigma_vse = nan, not the grid's (delta = inf for K)."""
    with pytest.raises(ValueError) as err:
        budget_point(reference_params.with_(K=1e308), reference_omega)
    assert str(err.value) == "the budget leaves the float range: delta = inf"
    for axis, grid, first in [("K", [1.0, 1e154, 1e308], "1e+154"),
                              ("M", [1.0, 1e157, 1e306], "1e+157"),
                              ("R_a", [1e-320, 1e4, 3e307], "1e-320")]:
        with pytest.raises(ValueError) as err:
            sweep(reference_params, axis, grid, omega=reference_omega)
        assert str(err.value) == (f"sweep failed at {axis} = {first}: "
                                  "the budget leaves the float range: sigma_vse = nan")


def _own_error(p, axis, value, omega):
    """The message of the ValueError that the one point value raises, or None."""
    try:
        if axis == "frequency":
            budget_point(p, value)
        else:
            budget_point(p.with_(**{axis: value}), omega)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(axis=st.sampled_from(["frequency", "K", "M", "H_m", "R_a", "R_l", "C_f", "T_a"]),
       exponents=st.lists(st.integers(min_value=-323, max_value=308), min_size=1, max_size=5,
                          unique=True))
def test_a_failing_sweep_point_raises_its_quoted_error_alone(reference_params, reference_omega,
                                                             axis, exponents):
    """Whenever sweep names a point, that point on its own raises exactly the
    error the sweep quotes."""
    grid = sorted(10.0 ** e for e in exponents)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # the sideband-ratio warning
        try:
            sweep(reference_params, axis, grid, omega=reference_omega)
            return
        except ValueError as exc:
            message = str(exc)
        if match := re.fullmatch(r"sweep failed at (\w+) = (\S+): (.*)", message):
            assert match[1] == axis and float(match[2]) in grid
            assert _own_error(reference_params, axis, float(match[2]), reference_omega) == match[3]


def test_sideband_warning_once_per_grid(reference_params):
    """A grid crossing the 1e3 carrier-to-signal ratio warns once, not per point."""
    wt = reference_params.omega_t
    grid = np.geomspace(wt / 1e5, wt / 10.0, 50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(reference_params, "frequency", grid)
    assert [w.category for w in caught] == [UserWarning]
    assert "carrier-to-signal" in str(caught[0].message)
