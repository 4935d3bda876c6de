"""Noise conventions: effective temperatures."""

import math

import pytest
from hypothesis import given, strategies as st

from coldamp.constants import HBAR, K_B
from coldamp.noise import coth, effective_temperature

OMEGA_T = 2.0 * math.pi * 1e5


def test_coth_reference_value():
    assert coth(1.0) == pytest.approx(1.3130352854993312, rel=1e-14, abs=0.0)


def test_coth_asymptote_and_expansion():
    assert coth(35.0) == 1.0
    x = 1e-9
    assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError):
        coth(0.0)


def test_zero_temperature_is_exact_zero_point():
    for omega in (1e-3, OMEGA_T, -OMEGA_T):
        assert effective_temperature(0.0, omega) == 0.5 * HBAR * abs(omega)


def test_temperature_whose_k_b_t_underflows_is_the_zero_point():
    """k_B T = 0 in floats at 5e-324 K: coth's argument is infinite, not a zero division."""
    for omega in (1e-3, OMEGA_T):
        assert effective_temperature(5e-324, omega) == 0.5 * HBAR * omega


@pytest.mark.parametrize("temp, omega", [
    (1e300, 1e-3),        # 1/x overflows in coth's Laurent branch
    (1.7e308, OMEGA_T),
    (1.5, 2.0 * math.pi * 1e-300),   # hbar |w| / 2 underflows to 0
    (300.0, 5e-324),
])
def test_classical_limit_past_the_float_range_of_x(temp, omega):
    """Where x = hbar|w|/2k_BT leaves the float range, kTheta is k_B T to rounding."""
    assert effective_temperature(temp, omega) == K_B * temp


def test_half_quantum_ratio():
    # hbar w = 2 kB T makes the coth argument exactly 1.
    omega = 1e5
    temp = HBAR * omega / (2.0 * K_B)
    expected = K_B * temp * coth(1.0)
    assert effective_temperature(temp, omega) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_classical_limit_at_room_temperature():
    value = effective_temperature(300.0, OMEGA_T)
    assert value == pytest.approx(K_B * 300.0, rel=1e-10, abs=0.0)
    assert value == pytest.approx(4.1420e-21, rel=1e-4, abs=0.0)


def test_quantum_crossover_matches_occupation_form():
    """kTheta = hbar w (1/expm1(x) + 1/2) with x = hbar w / kB T.

    A GHz carrier sweeps x over [1e-3, 1e2], from the classical regime
    through the crossover to the zero-point regime; the occupation form
    shares no code with the coth form under test.
    """
    omega = 2.0 * math.pi * 1e9
    for k in range(2001):
        x = 10.0 ** (-3.0 + 5.0 * k / 2000)
        expected = HBAR * omega * (1.0 / math.expm1(x) + 0.5)
        temp = HBAR * omega / (K_B * x)
        assert effective_temperature(temp, omega) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_rejects_zero_frequency_and_negative_temperature():
    with pytest.raises(ValueError):
        effective_temperature(300.0, 0.0)
    with pytest.raises(ValueError):
        effective_temperature(-1.0, OMEGA_T)


@given(
    temp=st.floats(min_value=1e-6, max_value=1e6),
    omega=st.floats(min_value=1e-6, max_value=1e12),
)
def test_never_below_zero_point(temp, omega):
    assert effective_temperature(temp, omega) >= 0.5 * HBAR * omega


@given(
    temp=st.floats(min_value=1e-3, max_value=1e5),
    omega=st.floats(min_value=1e-3, max_value=1e9),
)
def test_strictly_increasing_in_temperature(temp, omega):
    assert effective_temperature(2.0 * temp, omega) > effective_temperature(temp, omega)


@given(omega=st.floats(min_value=1e-6, max_value=1e6))
def test_high_temperature_asymptote(omega):
    # Pick T so hbar|w| / 2 kB T is safely below 1e-6.
    temp = HBAR * omega / (2.0 * K_B) * 1e7
    value = effective_temperature(temp, omega)
    assert abs(value - K_B * temp) / (K_B * temp) < 1e-12
