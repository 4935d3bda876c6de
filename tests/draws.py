"""verify's random stream, drawn one parameter set at a time.

The reference the tests hold verify._draws to, and the source of their
own random draws.  The bounds are verify._DECADES, so both read one table.
"""

import numpy as np

from coldamp.params import InstrumentParams
from coldamp.verify import _DECADES


def draw_params(base: InstrumentParams, rng: np.random.Generator) -> InstrumentParams:
    """Random parameter set, each field log-uniform within its _DECADES of the base."""
    return base.with_(**{name: getattr(base, name) * 10.0 ** rng.uniform(-high, high)
                         for name, high in _DECADES.items() if name != "omega"})


def draw_frequencies(base_omega: float, rng: np.random.Generator,
                     count: int = 10) -> np.ndarray:
    """Random analysis frequencies log-uniform around a reference."""
    high = _DECADES["omega"]
    return base_omega * 10.0 ** rng.uniform(-high, high, size=count)
