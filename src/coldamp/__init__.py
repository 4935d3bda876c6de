"""Quantum/thermal noise budget of a cold-damped capacitive accelerometer.

The instrument is modelled as a linear quantum network of noise lines
coupled through a detuned capacitive transducer and a cold charge
amplifier.  Closed-form noise coefficients (sensor and servo modules)
are cross-validated by an independent numerical network solver.

The public names load on first use (PEP 562), each from the submodule
that defines it: `import coldamp` and `coldamp.load` do not import numpy,
which only grids of closed forms, the servo tables, the oracle and
`run_checks` need (sensor and budget_point evaluate floats without it).
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> defining submodule.
_EXPORTS = {
    "budget_point": "budget", "sweep": "budget",
    "MatchingResult": "matching", "numerical_matching": "matching",
    "optimal_matching": "matching", "simplified_budget": "matching",
    "ConfigError": "config", "RunConfig": "config", "load": "config", "loads": "config",
    "LINE_LABELS": "noise", "effective_temperature": "noise",
    "InstrumentParams": "params",
    "BudgetPoint": "sensor", "estimator_coefficients": "sensor",
    "free_mass_coefficients": "sensor", "mechanical_impedance": "sensor",
    "sensor_noise_spectrum": "sensor",
    "cold_damped_estimator": "servo", "cold_damped_velocity": "servo",
    "gain_for_effective_impedance": "servo",
    "CheckResult": "verify", "run_checks": "verify", "sensing_error_identity": "verify",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
