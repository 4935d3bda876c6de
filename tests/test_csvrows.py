"""csvrows: the numpy CSV kernel writes exactly the text of "%.11e" % x."""

import numpy as np
import pytest

from coldamp.csvrows import csv_rows

TAIL = ",0123456789abcdef,0.0.0\n"
COLUMNS = 11     # as many as a budget's CSV


def _assert_rows_equal_percent(values):
    """The kernel's rows of the (COLUMNS, n) table are those formatted with %."""
    row = ",".join(["%.11e"] * COLUMNS) + TAIL
    want = "".join(map(row.__mod__, zip(*values.tolist())))
    got = csv_rows(list(values), TAIL)
    if got != want:      # name the first rows that differ, not the whole text
        got, want = got.splitlines(), want.splitlines()
        assert (len(got), [(g, w) for g, w in zip(got, want) if g != w][:3]) == (len(want), [])


def _bit_patterns(rng):
    """Every float64 class: normal, subnormal, zero, inf and nan, both signs."""
    return rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(np.float64)


def _log_uniform(rng):
    return rng.choice([-1.0, 1.0], 400_000) * 10.0 ** rng.uniform(-60.0, 80.0, 400_000)


def _ties(rng):
    """Decimal ties (m + 1/2) 10^k of 12-digit m: the float nearest each is within
    half an ulp of the tie, closer than the kernel's scaled value resolves."""
    digits = rng.integers(10**11, 10**12, 200_000).tolist()
    powers = rng.integers(-300, 290, 200_000).tolist()
    signs = rng.choice(["", "-"], 200_000).tolist()
    return np.array([float(f"{s}{m}5e{k}") for s, m, k in zip(signs, digits, powers)])


def _edges(rng):
    """Both sides of each rounding carry and power of ten, 3-digit exponents,
    the ends of the float range, zeros, infinities and nan."""
    exponents = range(-330, 310)
    carries = [float(f"{m}e{k}") for m in ("9.999999999995", "9.9999999999949",
                                            "9.99999999999", "1.000000000005")
               for k in exponents]
    tens = np.array([float(f"1e{k}") for k in exponents])
    near = [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-289, 1e-290, 1e100, 1e-100]
    values = np.concatenate([carries, *near, special])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("draw", [_bit_patterns, _log_uniform, _ties, _edges],
                         ids=lambda draw: draw.__name__.strip("_"))
def test_csv_rows_equal_percent_formatting(draw):
    values = draw(np.random.default_rng(34))
    _assert_rows_equal_percent(np.resize(values, (COLUMNS, -(-len(values) // COLUMNS))))


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000])
def test_csv_rows_cover_every_block(rows):
    """Blocks of 256 rows: each row appears once, in order, at any length."""
    exponents = np.random.default_rng(rows).uniform(-40.0, 5.0, (COLUMNS, rows))
    _assert_rows_equal_percent(10.0 ** exponents)
