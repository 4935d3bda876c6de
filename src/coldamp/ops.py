"""The operations a closed form needs that differ between floats and numpy.

Each closed form is written once over a namespace xp = of(inputs):
FLOAT evaluates one point in Python floats with math and builtins and
never imports numpy, and numpy_ops() (built on first use) evaluates a
grid of (N,) columns.  Both give the same bits: abs(complex) is C hypot,
as np.hypot is (math.hypot rounds some points differently); x ** 2.0 is
C pow, as np.float_power is (numpy's x ** 2 is x * x); math.sqrt and
+ - * / round correctly in both.  Where numpy gives inf or nan, Python
may raise an ArithmeticError instead; budget_point then evaluates the
call again on numpy, with numpy parameters.
"""

from __future__ import annotations

import functools
import math

from .noise import check_frequency

# Types of a float evaluation's inputs: numbers, and the tuples its tables are.
_FLOAT_TYPES = frozenset({float, int, complex, tuple})


def of(*values):
    """FLOAT when every value is a Python number or a FLOAT table, else numpy_ops()."""
    return FLOAT if _FLOAT_TYPES.issuperset(map(type, values)) else numpy_ops()


def exact_sum(products) -> float:
    """sum_k prod(products[k]) of finite floats, exact, then rounded once.

    Each float is m / 2^k (as_integer_ratio); the products are summed as
    integers over their largest power of two, and Python's int division
    rounds the quotient correctly.
    """
    terms = []
    for factors in products:
        num, shift = 1, 0
        for f in factors:
            m, d = f.as_integer_ratio()
            num *= m
            shift += d.bit_length() - 1
        terms.append((num, shift))
    top = max(shift for _, shift in terms)
    return sum(num << (top - shift) for num, shift in terms) / (1 << top)


class _Ops:
    def abs2(self, re, im):
        """|re + i im|^2, as Python's abs(re + i im) ** 2."""
        return self.sq(self.hypot(re, im))


class _Float(_Ops):
    """One point in Python floats; a table is the tuple of its 9 entries."""

    sqrt = staticmethod(math.sqrt)
    maximum = staticmethod(max)
    all = staticmethod(bool)
    lines = staticmethod(tuple)

    @staticmethod
    def frequencies(omega):
        check_frequency(omega)
        return float(omega)

    @staticmethod
    def sq(x):
        return x ** 2.0

    @staticmethod
    def hypot(re, im):
        return abs(complex(re, im))

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def exact(cancels, products):
        return exact_sum(products) if cancels else 0.0

    @staticmethod
    def table(columns, dtype):
        return tuple(map(dtype, columns))

    @staticmethod
    def each(f, *args):
        return f(*args)

    @staticmethod
    def broadcast(*values):
        return values

    @staticmethod
    def nonfinite(column):
        return [v for v in column if not math.isfinite(v)]


class _Numpy(_Ops):
    """A grid in numpy: (N,) columns and (N, 9) tables; 0-d values are one point."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.sqrt, self.hypot, self.where, self.maximum, self.all = (
            np.sqrt, np.hypot, np.where, np.maximum, np.all)

    def frequencies(self, omega):
        """omega as a float array (a numpy float for a float), checked by check_frequency."""
        w = self.np.asarray(omega, dtype=float)
        if not (w.all() and self.np.isfinite(w).all()):
            for value in w.flat:
                check_frequency(float(value))   # raises at the first bad point
        return w[()]

    def sq(self, x):
        return self.np.float_power(x, 2.0)

    def exact(self, cancels, products):
        """exact_sum of products where cancels holds, zero elsewhere; factors broadcast."""
        np = self.np
        exact = np.zeros(np.shape(cancels))
        if np.any(cancels):
            at = np.flatnonzero(cancels).tolist()
            columns = [[np.ravel(f)[at].tolist() if np.ndim(f) else [f] * len(at) for f in factors]
                       for factors in products]
            exact.flat[at] = [exact_sum(point) for point in zip(*(zip(*c) for c in columns))]
        return exact

    def table(self, columns, dtype):
        table = self.np.empty((*self.np.broadcast(*columns).shape, len(columns)), dtype=dtype)
        for k, column in enumerate(columns):
            table[..., k] = column
        return table

    def lines(self, table):
        """The 9 line columns of a (9,) or (N, 9) table."""
        return self.np.asarray(table).T

    def each(self, f, *args):
        """f at each point of the broadcast args, a float array (a numpy float for one point)."""
        return self.np.asarray(self.np.frompyfunc(f, len(args), 1)(*args), dtype=float)[()]

    def broadcast(self, *values):
        """values broadcast to one grid: (N,) arrays, or floats for a single point."""
        return [c if c.ndim else float(c) for c in self.np.broadcast_arrays(*values)]

    def nonfinite(self, column):
        finite = self.np.isfinite(column)
        return [] if finite.all() else self.np.extract(~finite, column).tolist()


FLOAT = _Float()


@functools.cache
def numpy_ops() -> _Numpy:
    """The numpy namespace; the first call imports numpy."""
    return _Numpy()
