"""Instrument parameter container: validation and derived impedances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldamp.params import InstrumentParams

FIELDS = list(InstrumentParams._fields)
MAY_BE_ZERO = {"K", "kappa_t", "T_m", "T_a", "T_l", "T_r"}


def test_positivity_validation(reference_params):
    with pytest.raises(ValueError, match="H_m"):
        reference_params.with_(H_m=-1.0)
    with pytest.raises(ValueError, match="M"):
        reference_params.with_(M=0.0)
    with pytest.raises(ValueError, match="T_a"):
        reference_params.with_(T_a=-0.5)
    with pytest.raises(ValueError, match="K"):
        reference_params.with_(K=-1e-6)
    with pytest.raises(ValueError, match="kappa_t"):
        reference_params.with_(kappa_t=-1e-7)
    # Zero coupling is a legal (decoupled) configuration.
    assert reference_params.with_(kappa_t=0.0).kappa_t == 0.0


def _rule_error(name, bad):
    if not math.isfinite(bad):
        return f"{name} must be finite, got {bad}"
    if name in MAY_BE_ZERO:
        return f"{name} must be >= 0, got {bad}"
    return f"{name} must be strictly positive, got {bad}"


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in FIELDS for bad in (0.0, -1.0, math.nan, math.inf, -math.inf)
    if not (bad == 0.0 and name in MAY_BE_ZERO)])
def test_a_column_fails_as_its_first_bad_point(reference_params, name, bad):
    """A float and an (N,) column with the same bad value inside give one message."""
    good = getattr(reference_params, name)
    with pytest.raises(ValueError) as point:
        reference_params.with_(**{name: bad})
    with pytest.raises(ValueError) as column:
        reference_params.with_(**{name: np.array([good, bad, good, -2.0])})
    assert str(point.value) == str(column.value) == _rule_error(name, bad)


def _error(p, name, value):
    try:
        p.with_(**{name: value})
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(FIELDS),
       column=st.lists(st.one_of(st.floats(), st.floats(min_value=0.0, max_value=1e300)),
                       min_size=1, max_size=6))
def test_with_takes_a_column_exactly_when_it_takes_each_point(reference_params, name, column):
    points = [_error(reference_params, name, v) for v in column]
    assert _error(reference_params, name, np.array(column)) == next(filter(None, points), None)


def test_magnitude_conversions(reference_params, reference_omega):
    p = reference_params
    assert p.C_f == pytest.approx(1.0 / (p.omega_t * 1.6e5), rel=1e-14, abs=0.0)
    assert p.C_t == pytest.approx(1.0 / (2.0 * reference_omega * 1e14), rel=1e-14, abs=0.0)
    assert p.C_t == pytest.approx(1.59e-12, rel=1e-2, abs=0.0)
    assert p.zf_mag == pytest.approx(1.6e5, rel=1e-12, abs=0.0)
    assert p.x_t(reference_omega) == pytest.approx(1e14, rel=1e-12, abs=0.0)


def test_impedance_phases(reference_params, reference_omega):
    p = reference_params
    # Z_f and Z_t = i x_t are positive-imaginary under the -i convention.
    assert 1.0 / (-1j * p.omega_t * p.C_f) == 1j * p.zf_mag
    assert p.zf_mag > 0.0
    x_t = p.x_t(reference_omega)
    assert x_t > 0.0
    # C_t doubled halves the transducer impedance.
    doubled = p.with_(C_t=2.0 * p.C_t)
    assert doubled.x_t(reference_omega) == pytest.approx(x_t / 2.0, rel=1e-14, abs=0.0)
    assert p.x_t(10.0 * reference_omega) == pytest.approx(x_t / 10.0, rel=1e-14, abs=0.0)


def test_detuning_and_mechanical_resistance(reference_params, reference_omega):
    p = reference_params
    assert p.delta(reference_omega) == pytest.approx(32.693, rel=1e-3, abs=0.0)
    assert p.r_m == pytest.approx(1.3e9, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="kappa_t is 0"):
        p.with_(kappa_t=0.0).r_m
    resonance = math.sqrt(p.K / p.M)
    assert p.delta(resonance) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kappa_t", [1e-200, 1e200])
def test_mechanical_resistance_outside_the_float_range(reference_params, kappa_t):
    """kappa_t^2 under- or overflows: a ValueError, not ZeroDivisionError or OverflowError."""
    with pytest.raises(ValueError) as err:
        reference_params.with_(kappa_t=kappa_t).r_m
    assert str(err.value) == f"R_m = H_m/kappa_t^2 leaves the float range: kappa_t = {kappa_t}"


def test_hashable(reference_params):
    same = reference_params.with_(M=reference_params.M)
    assert same == reference_params and same is not reference_params
    assert hash(same) == hash(reference_params)
    assert {reference_params: 1}[same] == 1
    assert reference_params.with_(M=1.0) != reference_params
