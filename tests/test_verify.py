"""Verification suite: gate honesty, typed errors and hard draws."""

import numpy as np
import pytest

import coldamp.verify as verify
from coldamp.network import build_sensor_network, check_commutators, solve
from coldamp.noise import LINE_LABELS
from coldamp.sensor import estimator_coefficients
from coldamp.servo import gain_for_effective_impedance


def test_oracle_gate_catches_a_1e9_error(reference_params, reference_omega, monkeypatch):
    """Negative control: every point is held to ORACLE_TOL, none relaxed."""

    def perturbed(p, omega):
        mu = estimator_coefficients(p, omega)
        mu[LINE_LABELS.index("m")] *= 1.0 + 1e-9
        return mu

    monkeypatch.setattr(verify, "estimator_mu", perturbed)
    _, mu, _ = verify.oracle_agreement(reference_params, reference_omega, draws=1,
                                       frequencies=10, seed=0)
    assert mu >= verify.ORACLE_TOL


def test_finite_gain_on_a_closed_loop_draw(reference_params, reference_omega):
    """A closed-loop draw solves, fits -1, and its passive rows are not canonical.

    The noiseless feedback force is not a passive element, so the
    closed-loop m, l1, l2 rows need not preserve commutators; here they
    miss by about 0.31 at every gain, while the open loop passes.
    """
    rng = np.random.default_rng(4)
    q = verify.draw_params(reference_params, rng)
    w = verify.draw_frequencies(reference_omega, rng, count=1)[0]
    assert abs(verify.finite_gain_exponent(q, w) + 1.0) < verify.EXPONENT_TOL
    for ratio in (1e3, 1e7):
        gain = gain_for_effective_impedance(q, ratio * q.H_m, w)
        closed = check_commutators(solve(build_sensor_network(q, gain, w)))
        assert closed == pytest.approx(0.31, abs=0.01)
    assert check_commutators(solve(build_sensor_network(q, None, w))) < verify.ORACLE_TOL


def test_run_checks_rejects_zero_coupling(reference_params, reference_omega):
    with pytest.raises(ValueError, match="kappa_t is 0"):
        verify.run_checks(reference_params.with_(kappa_t=0.0), reference_omega, draws=1)


@pytest.mark.parametrize("seed", [173518645, 519218416, 1987374907])
def test_run_checks_pass_at_hard_seeds(reference_params, reference_omega, seed):
    """The hardest of 1500 random seeds pass every check at 20 draws.

    Their worst oracle estimator deviations are 1.7e-12, 6.8e-13 and
    4.7e-13, the largest found for the refined solve.
    """
    results = verify.run_checks(reference_params, reference_omega, draws=20, seed=seed)
    assert [str(r) for r in results if not r.passed] == []


@pytest.mark.xfail(strict=True, reason="known flake: the real part of the a1 entry cancels "
                   "and the two closed forms differ by 1.1e-11 > EQUALITY_TOL")
def test_known_equality_flake(reference_params, reference_omega):
    """Pins the rare failure of the open/closed-loop estimator equality.

    At about 1 in 1e4 seeds of `verify --draws 20` the real part of the
    a1 entry, -kappa_t + C_f (K - M Omega^2) / 2 kappa_t, nearly cancels
    while the entry stays above max_rel_diff's 1e-6 floor, so the open-
    and closed-loop routes differ by a few ulps times ~1e4.  This seed
    reaches 1.12e-11.  A real fix makes the test pass, and the strict
    xfail then fails until the marker goes.
    """
    results = verify.run_checks(reference_params, reference_omega, draws=20, seed=1996521376)
    assert [str(r) for r in results if not r.passed] == []
