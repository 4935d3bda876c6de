"""Noise conventions: effective temperatures."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coldamp import noise, ops
from coldamp.noise import HBAR, K_B, effective_temperature

OMEGA_T = 2.0 * math.pi * 1e5


def _at_x(x: float, omega: float = OMEGA_T) -> tuple[float, float, float]:
    """The zero-point energy at omega, the temperature where hbar|w| / 2 k_B T is x to
    rounding, and that ratio as effective_temperature computes it."""
    zero_point = 0.5 * HBAR * omega
    temp = zero_point / (K_B * x)
    return zero_point, temp, zero_point / (K_B * temp)


def test_coth_reference_value():
    zero_point, temp, _ = _at_x(1.0)
    assert effective_temperature(temp, OMEGA_T) == pytest.approx(
        zero_point * 1.3130352854993312, rel=1e-14, abs=0.0)


def test_coth_asymptote_and_expansion():
    """Above x = 30 coth is 1, so kTheta is the zero point exactly; below x = 1e-8 it is
    the Laurent expansion 1/x + x/3."""
    zero_point, temp, _ = _at_x(35.0)
    assert effective_temperature(temp, OMEGA_T) == zero_point
    zero_point, temp, x = _at_x(1e-9)
    assert effective_temperature(temp, OMEGA_T) == pytest.approx(
        zero_point * (1.0 / x + x / 3.0), rel=1e-15, abs=0.0)


def test_zero_temperature_is_exact_zero_point():
    for omega in (1e-3, OMEGA_T, -OMEGA_T):
        assert effective_temperature(0.0, omega) == 0.5 * HBAR * abs(omega)


def test_temperature_whose_k_b_t_underflows_is_the_zero_point():
    """k_B T = 0 in floats at 5e-324 K: x is infinite, not a zero division."""
    for omega in (1e-3, OMEGA_T):
        assert effective_temperature(5e-324, omega) == 0.5 * HBAR * omega


@pytest.mark.parametrize("temp, omega", [
    (1e300, 1e-3),        # 1/x overflows in the Laurent branch
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
    expected = K_B * temp / math.tanh(1.0)
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


def _ulps_from_reference(k_theta, points) -> float:
    """Worst |k_theta(T, w) - (hbar|w|/2) coth(hbar|w|/2k_BT)| over points, in ulps
    of the reference, which 50-digit mpmath evaluates from the same float inputs."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for temp, omega in points:
            zero_point = mpmath.mpf(HBAR) * abs(mpmath.mpf(omega)) / 2
            ref = zero_point if temp == 0.0 else \
                zero_point * mpmath.coth(zero_point / (mpmath.mpf(K_B) * mpmath.mpf(temp)))
            err = abs(mpmath.mpf(k_theta(temp, omega)) - ref) / math.ulp(float(ref))
            worst = max(worst, float(err))
    return worst


def test_effective_temperature_within_8_ulp_of_a_50_digit_reference():
    """kTheta against (hbar|w|/2) coth(x), x = hbar|w|/2k_BT, to 50 digits.

    The function rounds zp = 0.5 hbar |w| (0.5 hbar is exact), k_B T and
    x = zp / k_B T once each, then returns zp * coth(x) with one more
    rounding.  With u = 2^-53 and kappa = 2x / sinh 2x in (0, 1], the size
    of d ln coth / d ln x, zp's rounding reaches the result with weight
    1 - kappa and the roundings of k_B T and x with weight kappa each: at
    most (1 + kappa) u <= 2u.  The final product adds u.  coth itself adds
    nothing above x = 30 (1 replaces it to 2e-26 relative), 2u below
    x = 1e-8 (1/x and the sum; x/3 weighs x^2/3 of the total, and the
    dropped -x^3/45 under 1e-33 relative), and 5u between them (tanh
    within 2 ulp, glibc's documented bound, so 4u relative, and the
    reciprocal, u).  To first order the error is at most 8u relative, so
    under 8 ulp of the result; these points read at most 2.28 ulp.

    Covered: x log-uniform over 1e-12...1e3, x on both sides of the 1e-8
    and 30 branch edges, and T = 0.  Negative controls: the classical
    kTheta = k_BT (off by up to 0.999 relative at x = 1e3) and kTheta = 0
    at T = 0 both fail the bound.
    """
    rng = np.random.default_rng(20)
    omegas = 10.0 ** rng.uniform(-3.0, 12.0, size=1200)
    xs = np.concatenate([10.0 ** rng.uniform(-12.0, 3.0, size=1000),
                         *(edge * (1.0 + np.arange(-50, 50) * 4e-16) for edge in (1e-8, 30.0))])
    points = [(float(0.5 * HBAR * w / (K_B * x)), float(w)) for x, w in zip(xs, omegas)]
    points += [(0.0, float(w)) for w in omegas[:100]] + [(0.0, -OMEGA_T)]
    # Both sides of each edge, in the function's own x.
    x_of = [0.5 * HBAR * abs(w) / (K_B * t) for t, w in points[1000:1200]]
    assert all(min(x_of[k:k + 100]) < edge < max(x_of[k:k + 100])
               for k, edge in ((0, 1e-8), (100, 30.0)))
    assert _ulps_from_reference(effective_temperature, points) <= 8.0
    assert _ulps_from_reference(lambda t, w: K_B * t, points) > 8.0
    assert _ulps_from_reference(lambda t, w: effective_temperature(t, w) if t else 0.0,
                                points) > 8.0


def test_rejects_zero_frequency_and_negative_temperature():
    with pytest.raises(ValueError):
        effective_temperature(300.0, 0.0)
    with pytest.raises(ValueError):
        effective_temperature(-1.0, OMEGA_T)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_grid_k_theta_equals_the_scalar_function_bit_for_bit():
    """numpy's k_theta against effective_temperature point by point: x
    log-uniform over 22 decades with T = 0 at every 97th point and both signs
    of omega, then points on both sides of each branch edge, subnormal and
    huge temperatures, -0.0 (zero point, as the scalar function gives), and a
    verify-like grid of repeated temperatures at one frequency (the band
    evaluated once per distinct (T, omega))."""
    k_theta, scalar = ops.numpy_ops().k_theta, np.frompyfunc(effective_temperature, 2, 1)
    rng = np.random.default_rng(36)
    x = 10.0 ** rng.uniform(-11.0, 11.0, size=300_000)
    omega = 10.0 ** rng.uniform(-3.0, 12.0, size=x.size) * rng.choice([-1.0, 1.0], size=x.size)
    temp = 0.5 * HBAR * np.abs(omega) / (K_B * x)
    temp[::97] = 0.0
    band = (x >= noise.COTH_SERIES) & (x <= noise.COTH_ONE)
    assert 0.3 < band.mean() < 0.6
    assert np.array_equal(_bits(k_theta(temp, omega)), _bits(scalar(temp, omega)))

    w = 2.0 * math.pi * 1e5
    edges = [0.5 * HBAR * w / K_B / e for e in (noise.X_CLASSICAL, noise.COTH_SERIES,
                                               noise.COTH_ONE)]
    temps = np.array([t * (1.0 + k * 2.2e-16) for t in edges for k in range(-40, 41)]
                     + [5e-324, 1e-310, 1e-300, 1e300, 0.0, -0.0])
    x_of = [0.5 * HBAR * w / (K_B * t) for t in temps[:3 * 81]]
    assert all(min(x_of[k:k + 81]) < e <= max(x_of[k:k + 81]) for k, e in zip(
        (0, 81, 162), (noise.X_CLASSICAL, noise.COTH_SERIES, noise.COTH_ONE)))
    for ws in (w, -w, np.geomspace(w, 10.0 * w, temps.size), 1e-300):   # 1e-300: hbar|w| = 0
        assert np.array_equal(_bits(k_theta(temps, ws)), _bits(scalar(temps, ws)))

    repeated = np.repeat(10.0 ** rng.uniform(-2.0, 3.0, size=20), 10)    # T_a over 20 draws
    assert np.array_equal(_bits(k_theta(repeated, w)), _bits(scalar(repeated, w)))
    assert k_theta(np.array([-0.0, 300.0]), w)[0] == 0.5 * HBAR * w
    for temp in (300.0, 1.5, 0.0, -0.0):                # one point: series, band, T = 0
        assert k_theta(temp, w) == effective_temperature(temp, w)
        assert type(k_theta(temp, w)) is np.float64


@pytest.mark.parametrize("bad", [(300.0, 0.0), (300.0, math.inf), (-1.0, OMEGA_T)],
                         ids=["omega=0", "omega=inf", "T=-1"])
def test_grid_k_theta_raises_the_scalar_error_of_its_first_bad_point(bad):
    """A grid the scalar function rejects raises its error for the first bad point,
    alone or before another."""
    with pytest.raises(ValueError) as expected:
        effective_temperature(*bad)
    for later in (300.0, -2.0):
        temp, omega = np.full(8, 300.0), np.full(8, OMEGA_T)
        temp[3], omega[3] = bad
        temp[6] = later
        with pytest.raises(ValueError) as err:
            ops.numpy_ops().k_theta(temp, omega)
        assert str(err.value) == str(expected.value)


def test_grid_k_theta_of_a_nan_temperature_is_the_scalar_result():
    """effective_temperature rejects a nan temperature as it rejects T < 0: so does the grid."""
    with pytest.raises(ValueError, match="temperature must be >= 0, got nan"):
        effective_temperature(math.nan, OMEGA_T)
    with pytest.raises(ValueError, match="temperature must be >= 0, got nan"):
        ops.numpy_ops().k_theta(np.array([300.0, math.nan, 0.0]), OMEGA_T)


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
