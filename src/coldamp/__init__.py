"""Quantum/thermal noise budget of a cold-damped capacitive accelerometer.

The instrument is modelled as a linear quantum network of noise lines
coupled through a detuned capacitive transducer and a cold charge
amplifier.  Closed-form noise coefficients (sensor and servo modules)
are cross-validated by an independent numerical network solver.
"""

__version__ = "0.1.0"

from .budget import (
    BudgetPoint,
    MatchingResult,
    budget_point,
    numerical_matching,
    optimal_matching,
    simplified_budget,
    sweep,
)
from .config import ConfigError, RunConfig, load, loads
from .noise import LINE_LABELS, effective_temperature
from .params import InstrumentParams
from .sensor import (
    SpectrumBreakdown,
    estimator_coefficients,
    free_mass_coefficients,
    mechanical_impedance,
    sensor_noise_spectrum,
)
from .servo import (
    cold_damped_estimator,
    cold_damped_velocity,
    cold_damped_velocity_coefficients,
    effective_impedance,
    gain_for_effective_impedance,
    sensing_error_identity,
)
from .verify import CheckResult, run_checks

__all__ = [
    "__version__",
    "BudgetPoint", "MatchingResult", "budget_point",
    "numerical_matching", "optimal_matching", "simplified_budget", "sweep",
    "ConfigError", "RunConfig", "load", "loads",
    "LINE_LABELS", "effective_temperature",
    "InstrumentParams",
    "SpectrumBreakdown", "estimator_coefficients",
    "free_mass_coefficients", "mechanical_impedance", "sensor_noise_spectrum",
    "cold_damped_estimator", "cold_damped_velocity", "cold_damped_velocity_coefficients",
    "effective_impedance", "gain_for_effective_impedance", "sensing_error_identity",
    "CheckResult", "run_checks",
]
