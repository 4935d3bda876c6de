import math

import pytest

from coldamp.params import InstrumentParams

REFERENCE_OMEGA = 2.0 * math.pi * 5e-4


@pytest.fixture(scope="session")
def reference_params() -> InstrumentParams:
    """The shipped design point, built directly from the quoted magnitudes.

    |Z_f| = 1.6e5 ohm is quoted at the carrier, C_f = 1/(omega_t |Z_f|);
    |Z_t| = 1e14 ohm at the reference frequency, C_t = 1/(2 omega_ref |Z_t|).
    """
    omega_t = 2.0 * math.pi * 1e5
    return InstrumentParams(
        M=0.27, K=4e-6, H_m=1.3e-5,
        kappa_t=1e-7, omega_t=omega_t,
        R_l=2.5e5, R_r=50.0, R_a=1.5e5,
        C_f=1.0 / (omega_t * 1.6e5), C_t=1.0 / (2.0 * REFERENCE_OMEGA * 1e14),
        T_m=300.0, T_a=1.5, T_l=300.0, T_r=300.0,
    )


@pytest.fixture(scope="session")
def reference_omega() -> float:
    return REFERENCE_OMEGA
