"""Columns of numbers as the text that `%`, `repr` or `str` formats, for
whole arrays.

`fixed(values, decimals, width)` gives the text of `'%{width}.{decimals}f'`,
`scientific(values)` that of `'%.15e'`, `shortest(values)` that of
`json.dumps` (a float's `repr`) and `integers(values)` that of `str`, byte
for byte, one row of `uint8` per value: the text in a slot common to the
column, padded with NULs; on its left, and for `shortest` also on its
right. A writer puts such slots and constant separators side by side in
one byte matrix and drops the NULs (`text`).

CPython's `%` prints the decimal that its value rounds to, half to even,
from the exact binary value (Gay 1990), and `repr` the shortest decimal
that reads back as the value, the nearest of several (Steele and White
1990). The kernels find those decimals with exact arithmetic:
  - `fixed` scales |x| by 10**decimals, an exact power for decimals <= 22,
    in one rounded product p. When p lies more than one ulp from a
    half-integer (so p < 2**51), the exact product lies on the same side
    of every half-integer as p, and `rint(p)` is the integer `%` prints.
  - `scientific` writes |x| = m * 2**e (m < 2**53) and its 16 digits as
    m * 5**s * 2**(e + s) for s = 15 - floor(log10 |x|). For s <= 27,
    m * 5**s < 2**117 is held exactly in two 64-bit limbs, then shifted
    right with a guard bit and a sticky bit for round-half-even.
  - `shortest` takes the 17-digit grid the same way, s = 16 - floor(log10
    |x|), and the interval of values that round to x, (m -+ 1/2) * 2**e
    (m - 1/4 below a power of two), as exact fractions of 2**(shift + 2)
    on that grid. Of the grid's integers in the interval, at most 23, it
    picks the one with the most trailing zeros, and of those the nearest
    to x (Adams 2018, "Ryu"). No end of the interval is a grid integer.
A cell that no kernel takes is formatted by `%`, `json.dumps` or `str`
into its slot: one not finite or out of range, a product within one ulp
of a half, for `scientific` or `shortest` a value next to a power of ten
whose floor(log10) is off by one, for `scientific` one whose significand
rounds up to the next power, and for `shortest` a value that `repr`
writes in exponent form (outside [1e-4, 1e16)) or whose nearest grid
integer is a tie. A slot widens to the column's longest text, such as
`'%.6f' % 1e300`.

A kernel builds its slots a character position at a time, as the rows of
a (position, value) array, and returns that array's transpose: numpy
works on long rows of values much faster than on short rows of
characters.
"""

from __future__ import annotations

import json

import numpy as np

_NUL, _SPACE, _MINUS, _POINT = 0, ord(" "), ord("-"), ord(".")
# the largest s = 15 - exponent for which m * 5**s fits two 64-bit limbs
_MAX_SHIFT = 27
_POW5 = np.array([5 ** s for s in range(_MAX_SHIFT + 1)], dtype=np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SCIENTIFIC_WIDTH = len("-1.000000000000000e-308")
# the two digits of 0..99 as code points
_TENS = np.repeat(np.arange(48, 58, dtype=np.uint8), 10)
_UNITS = np.tile(np.arange(48, 58, dtype=np.uint8), 10)
_U32 = np.uint64(0xFFFFFFFF)
# the place of each of 17 digits, counted from 1
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _digits(numbers: np.ndarray, count: int) -> np.ndarray:
    """The last `count` decimal digits of non-negative int64s as code
    points: row k holds every number's k-th digit, most significant
    first. Two digits a division, from a table."""
    out = np.empty((count + count % 2, len(numbers)), np.uint8)
    for k in range(len(out) - 2, -1, -2):
        quotient = numbers // 100
        pair = numbers - 100 * quotient
        out[k], out[k + 1] = _TENS[pair], _UNITS[pair]
        numbers = quotient
    return out[count % 2:]


def _with_fallback(positions: np.ndarray, cells: np.ndarray,
                   values: np.ndarray, to_text) -> np.ndarray:
    """The slots of a (position, value) array, one row per value, with
    the text `to_text(value)` in each row of `cells`, right-aligned;
    widened on the left to the longest such text."""
    slots = positions.T
    texts = list(map(to_text, values[cells].tolist()))
    if not texts:
        return slots
    width = max(slots.shape[1], *map(len, texts))
    if width > slots.shape[1]:
        slots = np.pad(slots, ((0, 0), (width - slots.shape[1], 0)))
    slots[cells] = np.frombuffer(
        "".join(text.rjust(width, "\0") for text in texts).encode("ascii"),
        np.uint8).reshape(-1, width)
    return slots


def fixed(values, decimals: int, width: int = 0) -> np.ndarray:
    """The text of `'%{width}.{decimals}f' % value` (`'%.{decimals}f'` for
    width 0) of each value, as NUL-padded `uint8` slots, one row each;
    for 1 <= decimals <= 22."""
    x = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(x) * 10.0 ** decimals
        half = np.abs(scaled - np.floor(scaled) - 0.5)
        exact = half > np.spacing(scaled)      # False for NaN and inf
    whole = np.where(exact, np.rint(scaled), 0.0).astype(np.int64)
    # digits: as many as the largest value has, one before the point
    count = max(len(str(int(whole.max(initial=0)))), decimals + 1)
    negative = exact & np.signbit(x)
    slot = max(width, negative.any() + count + 1)
    positions = np.empty((slot, len(x)), np.uint8)
    digits = _digits(whole, count)
    positions[slot - count - 1:slot - decimals - 1] = digits[:count - decimals]
    positions[slot - decimals - 1] = _POINT
    positions[slot - decimals:] = digits[count - decimals:]
    # each text's first position: its sign, or its first integer digit;
    # the positions ahead of it, all ahead of the units digit, are padding
    units = slot - decimals - 2
    first = units - np.searchsorted(_POW10[decimals + 1:count], whole,
                                    side="right") - negative
    ahead = np.arange(units)
    np.copyto(positions[:units], np.where(ahead < slot - width, _NUL,
                                          _SPACE).astype(np.uint8)[:, None],
              where=ahead[:, None] < first)
    positions[first[negative], negative.nonzero()[0]] = _MINUS
    return _with_fallback(positions, ~exact, x,
                          f"%{width or ''}.{decimals}f".__mod__)


def _mul_128(m: np.ndarray, f: np.ndarray) -> tuple:
    """The exact product of uint64s m < 2**53 and f < 2**63 as its
    (high, low) 64-bit limbs."""
    m_hi, m_lo = m >> np.uint64(32), m & _U32
    f_hi, f_lo = f >> np.uint64(32), f & _U32
    low = m_lo * f_lo
    middle = m_lo * f_hi + m_hi * f_lo          # < 2**64
    result = low + (middle << np.uint64(32))
    high = (m_hi * f_hi + (middle >> np.uint64(32))
            + (result < low).astype(np.uint64))
    return high, result


def _shift_round(high, low, shift) -> tuple:
    """(high * 2**64 + low) / 2**shift rounded half to even, and
    truncated, for shifts 1..127 that leave less than 2**62."""
    k = (shift - 1).astype(np.uint64)       # shifts off all but a guard bit
    big = k >= np.uint64(64)
    kk = np.where(big, k - np.uint64(64), k)
    guarded = np.where(big, high >> kk,
                       (low >> kk) | ((high << np.uint64(1))
                                      << (np.uint64(63) - kk)))
    below = (np.uint64(1) << kk) - np.uint64(1)
    sticky = np.where(big, (low != 0) | ((high & below) != 0),
                      (low & below) != 0)
    truncated = guarded >> np.uint64(1)
    up = (guarded & np.uint64(1)).astype(bool) & (
        sticky | (truncated & np.uint64(1)).astype(bool))
    return (truncated + up).astype(np.int64), truncated.astype(np.int64)


def scientific(values) -> np.ndarray:
    """The text of `'%.15e' % value` of each value, as NUL-padded `uint8`
    slots, one row each."""
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    fraction, power = np.frexp(magnitude)
    with np.errstate(divide="ignore", invalid="ignore"):
        mantissa = (fraction * 2.0 ** 53).astype(np.uint64)
        guess = np.floor(np.log10(magnitude))
    exact = np.isfinite(guess)
    exponent = np.where(exact, guess, 0.0).astype(np.int64)
    significand = np.zeros(len(x), np.int64)
    s = 15 - exponent
    shift = 53 - power - s
    exact &= (s >= 0) & (s <= _MAX_SHIFT) & (shift >= 1)
    cells = exact.nonzero()[0]
    rounded, truncated = _shift_round(
        *_mul_128(mantissa[cells], _POW5[s[cells]]), shift[cells])
    significand[cells] = rounded
    # floor(log10) may be one off next to a power of ten, as the truncated
    # significand shows exactly, or the rounding may carry to 10**16: such
    # a cell goes to `%`
    exact[cells] = (truncated >= 10 ** 15) & (rounded < 10 ** 16)
    exact |= magnitude == 0.0           # 0.000000000000000e+00

    positions = np.empty((_SCIENTIFIC_WIDTH, len(x)), np.uint8)
    digits = _digits(significand, 16)
    positions[0] = _NUL
    positions[1] = np.signbit(x) * _MINUS
    positions[2] = digits[0]
    positions[3] = _POINT
    positions[4:19] = digits[1:]
    positions[19] = ord("e")
    positions[20] = np.where(exponent < 0, _MINUS, ord("+"))
    positions[21:] = _digits(np.abs(exponent), 2)
    return _with_fallback(positions, ~exact, x, "%.15e".__mod__)


def shortest(values) -> np.ndarray:
    """The text that `json.dumps` writes for each value, `repr` of the
    float or `NaN`, `Infinity` or `-Infinity`, as NUL-padded `uint8`
    slots, one row each."""
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    fraction, power = np.frexp(magnitude)
    zero = magnitude == 0.0
    exact = (magnitude >= 1e-4) & (magnitude < 1e16)     # False for NaN
    exponent = np.floor(np.log10(np.where(exact, magnitude, 1.0))).astype(
        np.int64)
    mantissa = (np.where(exact, fraction, 0.5) * 2.0 ** 53).astype(np.uint64)
    s = 16 - exponent
    shift = 53 - power - s
    exact &= shift >= 1
    shift = np.where(exact, shift, 1).astype(np.uint64)
    # |x| * 10**s = N / 2**shift with N = m * 5**s: its integer part q,
    # and, in units of 2**-(shift + 2), the rest and the half-widths
    # of the interval that reads back as x (narrower below a power of 2)
    high, low = _mul_128(mantissa, _POW5[s])
    q = ((high << (np.uint64(64) - shift)) | (low >> shift)).astype(np.int64)
    remainder = ((low & ((np.uint64(1) << shift) - np.uint64(1)))
                 << np.uint64(2)).astype(np.int64)
    scale = (shift + np.uint64(2)).astype(np.int64)
    above = 2 * _POW5[s].astype(np.int64)
    below = above >> (mantissa == np.uint64(2 ** 52))
    # the integers a..b in that interval: no end of it is an integer, as
    # `remainder` is 0 mod 4, `above` 2 and `below` 2 or 1
    a = q - ((below - remainder) >> scale)
    b = q + ((remainder + above) >> scale)
    # c, the integer of a..b with the most trailing zeros, nearest to
    # |x| * 10**s. a..b spans at most 23 integers, so a multiple of 100
    # in it is b less its last two digits, and has the most; else c is
    # the multiple of 10, or the integer, nearest, moved into a..b (an
    # exact tie goes to the fallback)
    hundreds, tens = b // 100 * 100, b // 10 * 10
    ten = tens >= a
    base = np.where(ten, q // 10 * 10, q)
    above_half = (np.sign(q - base - 5 * ten) * (2 << scale) + 2 * remainder
                  - ~ten * (1 << scale))
    nearest = base + (above_half > 0) * np.where(ten, 10, 1)
    c = np.minimum(np.maximum(nearest, np.where(ten, -(-a // 10) * 10, a)),
                   np.where(ten, tens, b))
    several = hundreds < a
    c = np.where(several, c, hundreds)
    # c < 10**17 once floor(log10) holds: 10**(exponent + 1) is a double
    # or rounds up, so it reads back as no smaller double; 0 is 0.0
    exact &= (q >= 10 ** 16) & (q < 10 ** 17) & ~(several & (above_half == 0))
    c[zero] = 0
    exact |= zero

    # rows 1..21 of `grid` hold "0000" and c's 17 digits. Text position k
    # holds grid row k + 1 up to the units digit, then the point, then
    # grid row k: from the leading digit, or the units digit, to the last
    # significant digit, or the digit after the point
    grid = np.zeros((23, len(x)), np.uint8)
    grid[1:5] = ord("0")
    grid[5:22] = _digits(c, 17)
    significant = ((grid[5:22] != ord("0")) * _PLACES).max(axis=0, initial=0)
    units = np.where(exact, 4 + exponent, 4).astype(np.uint8)
    first = np.minimum(4, units)
    last = np.where(exact, np.maximum(3 + significant, units + 1) + 1, 5)
    # positions top..bottom, which some text reaches, after a sign row
    top = int(first.min(initial=4))
    bottom = int(last.max(initial=top)) + 1
    row = np.arange(top, bottom, dtype=np.uint8)[:, None]
    positions = np.zeros((bottom - top + 1, len(x)), np.uint8)
    body = positions[1:]
    body[:] = grid[top:bottom]
    np.copyto(body, grid[1 + top:1 + bottom], where=row <= units)
    body *= row - first <= last - first         # unsigned: row >= first
    cells = np.arange(len(x))
    body[units + 1 - top, cells] = _POINT
    negative = np.signbit(x)
    positions[first[negative] - top, cells[negative]] = _MINUS
    return _with_fallback(positions, ~exact, x, json.dumps)


def integers(values) -> np.ndarray:
    """The text of `str(value)` of each integer, as NUL-padded `uint8`
    slots, one row each."""
    v = np.asarray(values, dtype=np.int64).ravel()
    negative = v < 0
    magnitude = np.abs(v)
    exact = magnitude >= 0          # False for the least int64 only
    magnitude[~exact] = 0
    count = len(str(int(magnitude.max(initial=0))))
    positions = np.empty((count + 1, len(v)), np.uint8)
    positions[1:] = _digits(magnitude, count)
    first = count - np.searchsorted(_POW10[1:count], magnitude,
                                    side="right") - negative
    np.copyto(positions, _NUL, where=np.arange(count + 1)[:, None] < first)
    positions[first[negative], negative.nonzero()[0]] = _MINUS
    return _with_fallback(positions, ~exact, v, str)


def strings(texts) -> np.ndarray:
    """ASCII strings as NUL-padded `uint8` slots, one row each."""
    array = np.array(texts, dtype=bytes)
    return array.view(np.uint8).reshape(len(array), array.itemsize)


def text(*columns) -> str:
    """The rows of `columns` side by side, NULs dropped, as one string:
    each column a `uint8` matrix of one row per line, or `bytes` that
    every line holds at that place."""
    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    widths = [c.shape[1] if isinstance(c, np.ndarray) else len(c)
              for c in columns]
    matrix = np.empty((rows, sum(widths)), np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        matrix[:, at:at + width] = (column if isinstance(column, np.ndarray)
                                    else np.frombuffer(column, np.uint8))
        at += width
    flat = matrix.ravel()
    return flat[flat != 0].tobytes().decode("ascii")
