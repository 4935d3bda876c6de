"""Instrument parameters of the cold-damped accelerometer, and Record, every record's base.

Reactive magnitudes quoted for the instrument (|Z_f|, |Z_t|) are stored
canonically as the underlying capacitances:

    Z_f = 1 / (-i omega_t C_f) = i zf_mag     feedback (charge) amplifier
    Z_t = -1 / (2 i Omega C_t) = i x_t        detuned transducer mode

so both impedances can be evaluated at any analysis frequency.  The
quantum-mechanics sign convention (-i omega t time dependence) is used for
every stored impedance; both are purely imaginary, carried as zf_mag and x_t.
"""

from __future__ import annotations

import math

# Every field must be finite; these may be zero, the others must be strictly positive.
_MAY_BE_ZERO = frozenset({"K", "kappa_t", "T_m", "T_a", "T_l", "T_r"})


def _broken_rule(name: str, value) -> str | None:
    """The error for value in field name, or None when the value is legal."""
    if not math.isfinite(value):
        return f"{name} must be finite, got {value}"
    if name in _MAY_BE_ZERO:
        return None if value >= 0.0 else f"{name} must be >= 0, got {value}"
    return None if value > 0.0 else f"{name} must be strictly positive, got {value}"


def check_frequency(omega: float) -> None:
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    if not math.isfinite(omega):
        raise ValueError(f"frequency must be finite, got {omega}")


class Record:
    """Base of every coldamp record: immutable, holding the fields its subclass annotates.

    A class attribute of a field's name is its default; __post_init__, if any, checks them.
    _fields names them, vars() gives them in that order, and ==, hash() and repr() use them.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):         # every field, by position
            self.__dict__.update(zip(fields, args))
        else:
            name, defaults = type(self).__name__, vars(type(self))
            given = dict(zip(fields, args))
            if (len(args) > len(fields) or given.keys() & kwargs
                    or not kwargs.keys() <= set(fields)):
                raise TypeError(f"{name} takes the fields {', '.join(fields)}, each at most once")
            given.update(kwargs)
            if missing := [key for key in fields if key not in given and key not in defaults]:
                raise TypeError(f"{name} is missing the field(s) {', '.join(missing)}")
            self.__dict__.update({key: given.get(key, defaults.get(key)) for key in fields})
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, key, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {key!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields replaced; __post_init__ checks it again."""
        return type(self)(**{**vars(self), **changes})


class InstrumentParams(Record):
    """Full parameter set of the accelerometer model, an immutable Record.

    Each field is a float, or an (N,) array for N parameter sets at once
    (with_(R_a=array)).  Construction checks every point: each field is
    finite, and strictly positive except K, kappa_t and the temperatures,
    which may be zero.  An error names the first failing value.
    """

    M: float         # proof mass, kg
    K: float         # restoring stiffness, N/m (>= 0)
    H_m: float       # residual viscous damping, kg/s
    kappa_t: float   # electromechanical coupling, C/m
    omega_t: float   # carrier (pump) angular frequency, rad/s
    R_l: float       # loss-line noise impedance, ohm
    R_r: float       # detection-line noise impedance, ohm
    R_a: float       # amplifier noise impedance, ohm
    C_f: float       # feedback capacitance, F
    C_t: float       # transducer mode capacitance, F
    T_m: float       # mechanical-line temperature, K
    T_a: float       # amplifier temperature, K
    T_l: float       # loss-line temperature, K
    T_r: float       # detection-line temperature, K

    def __post_init__(self):
        for name, value in vars(self).items():
            if not getattr(value, "ndim", 0):
                error = _broken_rule(name, value)
            elif _broken_rule(name, value.min()) or _broken_rule(name, value.max()):
                # an (N,) column breaks a rule at its extremes if at any point
                error = next(filter(None, (_broken_rule(name, v) for v in value.tolist())))
            else:
                continue
            if error:
                raise ValueError(error)

    @property
    def zf_mag(self) -> float:
        """|Z_f| = 1/(omega_t C_f), ohm, with Z_f = i |Z_f|."""
        return 1.0 / (self.omega_t * self.C_f)

    def x_t(self, omega):
        """Transducer reactance x_t = 1/(2 Omega C_t), ohm, with Z_t = i x_t; elementwise."""
        return 1.0 / (2.0 * omega * self.C_t)

    @property
    def r_m(self) -> float:
        """Mechanical damping as an equivalent electrical resistance."""
        if self.kappa_t == 0.0:
            raise ValueError("R_m = H_m/kappa_t^2 is undefined without electromechanical "
                             "coupling; kappa_t is 0")
        try:
            return self.H_m / self.kappa_t**2
        except (ZeroDivisionError, OverflowError):    # kappa_t^2 under- or overflows
            raise ValueError(f"R_m = H_m/kappa_t^2 leaves the float range: "
                             f"kappa_t = {self.kappa_t}") from None

    def delta(self, omega: float) -> float:
        """Reactive-to-dissipative impedance ratio (K/Omega - M Omega)/H_m."""
        check_frequency(omega)
        return (self.K / omega - self.M * omega) / self.H_m

    def with_(self, **changes) -> "InstrumentParams":
        """A copy with the given fields replaced, floats or (N,) arrays; validation re-runs."""
        return self.replace(**changes)
