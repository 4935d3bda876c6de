"""Instrument parameter container: validation and derived impedances."""

import math

import pytest

from coldamp.params import InstrumentParams


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
    assert p.z_f.real == 0.0
    assert p.z_f.imag > 0.0
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


def test_hashable(reference_params):
    same = reference_params.with_(M=reference_params.M)
    assert same == reference_params and same is not reference_params
    assert hash(same) == hash(reference_params)
    assert {reference_params: 1}[same] == 1
    assert reference_params.with_(M=1.0) != reference_params
