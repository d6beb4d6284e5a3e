"""Exact float64 texts for the CSV dumps, rendered a whole array at a time.

``reprs(values)`` returns each row's ``repr``s joined by "," for a (rows,
columns) float64 array, and ``list(map(repr, values.tolist()))`` for a 1-D
one.  Python's ``repr`` writes the shortest decimal that reads back as the
same float, of those the nearest to it, in fixed notation from 1e-4 to
below 1e16.

The fast path decides the values x from 1.5e-4 to 9e15, in the way of the
Ryu and Schubfach shortest-decimal algorithms (Adams, PLDI 2018; Giulietti
2020), in exact double arithmetic:

1. With 2**(b - 1) <= x < 2**b (``np.frexp``), E is the largest d with
   10**d <= 2**(b - 1), from a table by b, plus 1 where x is at or above
   the double nearest 10**(d + 1).  y = x * 10**(16 - E) as an exact sum
   ``hi + lo`` (Dekker's TwoProduct; 10**(16 - E) is an exact double).
2. With u = ``np.spacing(x)``, x's ulp, and h = u/2 * 10**(16 - E), the
   integers within h of y run from ``hi + ceil(lo - h)`` to
   ``hi + floor(lo + h)``.
3. D is the multiple of the largest 10**j with one in those bounds that is
   nearest to y, the even one where y lies half-way between two.  The
   text is D's 17 digits less its j trailing zeros, with the point placed
   by E.

Why D is ``repr``'s decimal, for x = m * 2**e with 2**52 <= m < 2**53:

a. E is x's decimal exponent.  10**d <= x < 2 * 2**(b - 1) < 10**(d + 2),
   so E = d + 1 exactly where x >= 10**(d + 1).  The double nearest
   10**(d + 1) is the least one at or above it (e), so the comparison is
   exact.  Thus 10**16 <= y < 10**17, and as rounding is monotone and both
   ends are doubles, 10**16 <= hi <= 10**17.
b. The reals that read back as x lie within u/2 of it, ends included for
   even m, except that below a power of two they reach only u/4.  Scaled,
   that is within h of y, and h > 10**16 * 2**-54 > 1/2, so the shortest
   decimals are the multiples of the largest 10**j among the integers
   there, and ``repr`` writes the one nearest to y.
c. h = 5**(16 - E) * 2**(e + 15 - E) is exact (5**20 < 2**53), and y, lo
   and h are multiples of g = 2**(e + 15 - E) >= 2**-47.  With |lo| <= 8
   and h < 12, lo - h and lo + h are exact doubles: step 2's bounds are
   exact.  y - h and y + h are odd multiples of g, no integers unless
   x >= 2**52, where y = 10 x, h = 5, and step 3 picks a multiple of 10.
   So whether the ends read back never matters.
d. At a power of two, x = 2**k with -12 <= k <= 52, the bounds reach h
   below y, not h/2.  Let 10**t be the largest power of ten that divides
   the integer y.  Every other multiple of 10**t lies at least 10**t from
   y, and h = 2**(k - 53) * 10**(16 - E) < 10**t: t = 16 - E for k >= 0,
   and y = 5**-k * 10**t with 5**-k < 2**53 for k < 0.  So D = y, x's
   exact digits, which ``repr`` writes.
e. No bound reaches 10**17, which needs 10**(E + 1) within u/2 above x.
   For E >= -1 that is a double, so at least u above x.  0.001, 0.01 and
   0.1 are not, but the doubles nearest to them lie above them, not at x.
   So j <= 16, and D >= 10**16, which lies between y and any lower
   multiple of 10**j.
f. Some multiple of 10**j lies within h of y, so D, the nearest one, does
   too: it needs no check against the bounds.  D is then no multiple of
   10**(j + 1), so its text has 17 - j digits.
g. With y = w + r + f, w a multiple of 10**j, 0 <= r < 10**j an integer
   and 0 <= f < 1, D = w + 10**j where s = 2 r - 10**j + 2 f > 0, and y is
   half-way where s = 0.  2 r - 10**j is exact (even, below 2**54, for
   j > 0), and adding 2 f, a multiple of 2**-46 below 2, is exact when
   that integer is 0 or -1 and cannot change its sign otherwise.  At
   s = 0, x is no power of two (d: there y is a multiple of 10**j), so
   the bounds lie h either side of y, and both multiples of 10**j half-way
   around it are in them.  ``repr``, which follows Gay's ``dtoa``, then
   writes the even multiple of 10**j: D = w + 10**j where w / 10**j is
   odd.

D's 17 digits come from a table of 4-digit texts, the decimal point goes
in by E, a "," or "\\n" ends each cell, and a mask per (E, digit count)
keeps each text's bytes: all rows come from one compaction, one decode and
one ``split``.  A row with a cell outside the fast path -- NaN,
infinities, zeros, negatives and values outside that range -- is joined
from ``repr`` itself, so the function is total, and a slice with no cell
inside it is joined from ``repr`` alone.  In the fast path 1.0 stands in
for such a cell, and its mask keeps only the separator.
"""

from __future__ import annotations

import math

import numpy as np

# Values the fast path decides, with the range of their decimal exponents.
FAST_MIN, FAST_MAX = 1.5e-4, 9e15
_E_MIN, _E_MAX = -4, 15
# Digits of the scaled integer, 10**16 <= D < 10**17.
_DIGITS = 17

# Exact doubles 10**(16 - E), E from _E_MAX down, split for TwoProduct.
_SCALE = np.array([float(10 ** (16 - e)) for e in range(_E_MAX, _E_MIN - 1, -1)])
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_POW10 = np.array([10**k for k in range(_DIGITS)], dtype=np.int64)

# By binary exponent b from _B_MIN up, for 2**(b - 1) <= x < 2**b:
# the largest d with 10**d <= 2**(b - 1), counted in the digits of
# 2**|b - 1|, and the double nearest 10**(d + 1), which is the least one at
# or above it.
_B_MIN = math.frexp(FAST_MIN)[1]
_DECADE = np.array([len(str(2**k)) - 1 if k >= 0 else -len(str(2**-k))
                    for k in range(_B_MIN - 1, math.frexp(FAST_MAX)[1])])
_UP = np.array([float(f"1e{d + 1}") for d in _DECADE])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: a == high + low exactly, each with at most 26 bits."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)

# A row's 24 bytes: "\n\n\n0" (the separators that end the row before),
# "000" and D's first digit, and D's four 4-digit groups, as 4-byte words,
# so that each group is one lookup.
_LEAD = np.frombuffer(b"\n\n\n0", dtype=np.uint32)[0]
_ROW = 24
# A text's columns are the row's bytes from byte 3, and from byte 2 after
# the decimal point, which goes in at column 5 + E.  Column 22 is the
# separator, byte 0 of the next row.
_SEPARATOR = 22


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts of 0000..9999 as words; by E, the columns before the point
    (0xff bytes); by (E, digit count), plus a last key for a cell outside
    the fast path, the columns a text keeps."""
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quads[..., place] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - place))
    col = np.arange(_ROW)
    exponent = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    before = (col < exponent[:, 0] + 5) * np.uint8(0xFF)
    # From "0." for E < 0, else from the first digit (column 4), through
    # the last digit, or through the "0" after the point.
    first = 4 + np.minimum(exponent, 0)
    last = 4 + np.maximum(np.arange(1, _DIGITS + 1)[:, None], exponent + 2)
    keep = np.zeros((len(first) * _DIGITS + 1, _ROW), dtype=bool)
    keep[:-1] = ((col >= first) & (col <= last)).reshape(-1, _ROW)
    keep[:, _SEPARATOR] = True
    return quads.view(np.uint32).ravel(), before, keep


_QUADS, _BEFORE, _KEEP = _tables()
_OUTSIDE = len(_KEEP) - 1


def _interval(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For x in [FAST_MIN, FAST_MAX]: E, y = x * 10**(16 - E) as whole +
    frac (0 <= frac < 1), and the bounds of the integers within h of y:
    steps 1 and 2."""
    b = np.frexp(x)[1] - _B_MIN
    exponent = _DECADE.take(b) + (x >= _UP.take(b))
    index = _E_MAX - exponent
    scale = _SCALE.take(index)
    # TwoProduct: y == hi + lo.
    hi = x * scale
    x_high, x_low = _split(x)
    scale_high, scale_low = _SCALE_HIGH.take(index), _SCALE_LOW.take(index)
    lo = x_high * scale_high - hi + x_high * scale_low + x_low * scale_high + x_low * scale_low
    base = hi.astype(np.int64)
    half = np.spacing(x) * scale * 0.5
    lower = base + np.ceil(lo - half).astype(np.int64)
    upper = base + np.floor(lo + half).astype(np.int64)
    floor = np.floor(lo)
    return exponent, base + floor.astype(np.int64), lo - floor, lower, upper


def _shortest(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For x in [FAST_MIN, FAST_MAX]: each row's E, its shortest decimal as
    a 17-digit integer D (the text's digits, then zeros) and the text's
    digit count: step 3."""
    exponent, whole, frac, lower, upper = _interval(x)
    # The largest 10**j with a multiple in [lower, upper]: rows move on
    # to the next power while it has one.
    j = np.zeros(len(x), dtype=np.int64)
    rows = np.arange(len(x))
    for power in range(1, _DIGITS):
        step = _POW10[power]
        rows = rows[upper.take(rows) // step * step >= lower.take(rows)]
        if not len(rows):
            break
        j[rows] = power
    step = _POW10.take(j)
    rest = whole % step
    side = (2 * rest - step).astype(np.float64) + 2 * frac
    digits = whole - rest + step * (side > 0)
    # Half-way: the even multiple of 10**j.
    ties = np.flatnonzero(side == 0)
    digits[ties] += step.take(ties) * (digits.take(ties) // step.take(ties) % 2)
    return exponent, digits, _DIGITS - j


def _words(digits: np.ndarray) -> np.ndarray:
    """The rows' words for 17-digit D's, and one more row whose first byte
    ends the last text."""
    words = np.empty((len(digits) + 1, _ROW // 4), dtype=np.uint32)
    words[:, 0] = _LEAD
    high = digits // 10**8
    low = digits - high * 10**8
    first = high // 10**8
    words[:-1, 1] = _QUADS.take(first)
    for column, groups in ((2, high - first * 10**8), (4, low)):
        top = groups // 10**4
        words[:-1, column] = _QUADS.take(top)
        words[:-1, column + 1] = _QUADS.take(groups - top * 10**4)
    return words


def _texts(rows: np.ndarray, fast: np.ndarray) -> str:
    """The fast path's texts of a (rows, columns) array's rows, their cells
    joined by "," and each ended by "\\n", where ``fast`` marks the cells in
    the fast path; a row with a cell outside it is not whole."""
    values = rows.ravel()
    fast = fast.ravel()
    exponent, digits, count = _shortest(np.where(fast, values, 1.0))
    row_bytes = _words(digits).view(np.uint8).ravel()
    # Each cell's bytes from byte 3 before its point and from byte 2 after
    # it: a select on the flat bytes.
    size = len(values) * _ROW
    laid = row_bytes[3 : size + 3] ^ row_bytes[2 : size + 2]
    laid &= _BEFORE.take(exponent - _E_MIN, axis=0).ravel()
    laid ^= row_bytes[2 : size + 2]
    laid[np.arange(0, size, _ROW) + exponent + 5] = ord(".")
    # Every cell but a row's last ends with "," instead of "\n".
    laid.reshape(*rows.shape, _ROW)[:, :-1, _SEPARATOR] = ord(",")
    key = np.where(fast, (exponent - _E_MIN) * _DIGITS + count - 1, _OUTSIDE)
    return str(laid[_KEEP.take(key, axis=0).ravel()].data, "ascii")


def _joined(rows: np.ndarray) -> list[str]:
    """Each row's ``repr``s joined by ",", from ``repr`` itself."""
    return list(map(",".join, zip(*[map(repr, column) for column in rows.T.tolist()])))


def reprs(values: np.ndarray) -> list[str]:
    """Each row's ``repr``s joined by ","; a 1-D array is one column."""
    if values.dtype != np.float64 or values.ndim not in (1, 2):
        raise TypeError(f"reprs takes a 1-D or 2-D float64 array, not {values.ndim}-D {values.dtype}")
    rows = values[:, None] if values.ndim == 1 else values
    if not rows.size:
        return [""] * len(rows)
    fast = (rows >= FAST_MIN) & (rows <= FAST_MAX)
    if not fast.any():
        return _joined(rows)
    texts = _texts(rows, fast).split("\n")
    texts.pop()
    if not fast.all():
        undecided = np.flatnonzero(~fast.all(axis=1))
        for index, text in zip(undecided.tolist(), _joined(rows[undecided])):
            texts[index] = text
    return texts
