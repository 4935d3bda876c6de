"""CSV rows of float64 columns in numpy, exactly as "%.11e" formats each cell.

A cell x = m 10^(e-11), m a 12-digit integer, is five 4-byte words looked
up in _WORDS: [sign]d.d, dddd, dddd, dde+ or dde-, and the exponent's
digits with the comma.  The scaled |x| 10^(11-e) is one multiplication by
the correctly rounded power 10^(11-e): two roundings of a value below
1e12, so within 2.3e-4 of exact, and rint gives the correctly rounded m
wherever the scaled value is not within 1e-3 of a rounding tie.  Such a
cell, one whose scaled value is not in [1e11, 1e12 - 1), and 0, -0.0,
inf, nan and |x| < 1e-289 are formatted by % instead.

Only array columns come here (cli._csv); budget's list columns are
formatted by %, so a float budget never imports this module or numpy.
"""

from __future__ import annotations

import numpy as np


def _words(texts) -> np.ndarray:
    """Each text, padded with NULs to 4 bytes, as one word."""
    return np.frombuffer("".join(t.ljust(4, "\0") for t in texts).encode(), np.uint32)


_PAIRS = [f"{v:02d}" for v in range(100)]
_DIGITS = np.frombuffer("".join(_PAIRS).encode(), np.uint8).reshape(100, 2)
_SECTIONS = (_words(f"{s}{v // 10}.{v % 10}" for s in ("", "-") for v in range(100)),
             np.concatenate(np.broadcast_arrays(_DIGITS[:, None], _DIGITS), axis=-1)
             .view(np.uint32).ravel(),                                   # dddd
             _words(f"{v}e{s}" for s in "+-" for v in _PAIRS),
             _words(f"{v:02d}," for v in range(400)))
_WORDS = np.concatenate(_SECTIONS)
_START = np.cumsum([0, *map(len, _SECTIONS)])[[0, 1, 1, 2, 3]]   # each word's section
# 10^k for |k| <= 300; float() of a decimal string rounds correctly.
_POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])
# Rows per block: every temporary stays under glibc's 128 KiB mmap threshold.
_BLOCK = 256


def csv_rows(columns, tail: str) -> str:
    """Each row's cells as "%.11e" % x, joined by commas, then tail (which
    starts with a comma): the text of formatting each row with %."""
    table = np.stack(columns, axis=-1, dtype=float)
    n = table.shape[1]          # cells per row, 20 bytes each; the last comma starts tail
    row = np.zeros(-(-(20 * n + len(tail) - 1) // 4) * 4, np.uint8)    # whole words
    row[20 * n:20 * n + len(tail) - 1] = np.frombuffer(tail[1:].encode(), np.uint8)
    text = []
    for first in range(0, len(table), _BLOCK):
        x = table[first:first + _BLOCK]
        block = np.tile(row, (len(x), 1))
        with np.errstate(all="ignore"):
            a = np.abs(x)
            e = np.floor(np.log10(a))
            good = np.abs(11.0 - e) <= 300.0
            scaled = a * _POWERS.take(np.where(good, 311.0 - e, 300.0).astype(np.intp))
            m = np.rint(scaled)
            good &= (scaled >= 1e11) & (scaled < 1e12 - 1.0) & (np.abs(scaled - m) < 0.499)
            m, e = np.where(good, m, 1e11), np.where(good, e, 0.0)
        head = np.floor(m / 1e10)       # exact quotients: m is an integer below 2^53
        m -= head * 1e10
        mid = np.floor(m / 1e6)
        m -= mid * 1e6
        low = np.floor(m / 1e2)
        index = np.stack([head + 100.0 * (x < 0), mid, low,
                          m - low * 1e2 + 100.0 * (e < 0), np.abs(e)], axis=-1)
        block.view(np.uint32)[:, :5 * n].reshape(len(x), n, 5)[:] = (
            _WORDS.take(index.astype(np.intp) + _START))
        for i, j in zip(*np.nonzero(~good)):
            cell = ("%.11e," % float(x[i, j])).encode().ljust(20, b"\0")
            block[i, 20 * j:20 * j + 20] = np.frombuffer(cell, np.uint8)
        text.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)
