"""Columns of numbers as the text that `%`, `repr` or `str` formats, for
whole arrays.

`fixed(values, decimals, width)` gives the text of `'%{width}.{decimals}f'`,
`scientific(values)` that of `'%.15e'`, `shortest(values)` that of
`json.dumps` (a float's `repr`) and `integers(values)` that of `str`, byte
for byte, one row of `uint8` per value: the text in a slot common to the
column, padded with NULs; on its left, and for `shortest` also on its
right. A writer puts such slots and constant separators side by side in
one byte matrix, `ROW_SLICE` rows at a time, and drops the NULs (`text`).

CPython's `%` prints the decimal that its value rounds to, half to even,
from the exact binary value (Gay 1990), and `repr` the shortest decimal
that reads back as the value, the nearest of several (Steele and White
1990). The kernels find those decimals with exact arithmetic on one core,
and lay out digits with one layout:
  - `_scaled(x, digits)` writes |x| = m * 2**e (m < 2**53), E = floor(log10
    |x|) and |x| * 10**s = m * 5**s / 2**shift = q + r / 2**shift exactly,
    s = digits - 1 - E: for 0 <= s <= 27, m * 5**s fits two 64-bit limbs,
    and for 1 <= shift <= 61, q and 4 * r fit an int64.
  - `scientific` rounds the 16-digit q half to even from r.
  - `shortest` takes the 17-digit grid q and the interval of values that
    round to x, (m -+ 1/2) * 2**e (m - 1/4 below a power of two), as
    exact fractions of 2**(shift + 2) from 4 * r. Of the grid's integers
    in the interval, at most 23, it picks the one with the most trailing
    zeros, and of those the nearest to x (Adams 2018, "Ryu"). No end of
    the interval is a grid integer.
  - `fixed` scales |x| by 10**decimals, an exact power for decimals <= 22,
    in one rounded product p. When p lies more than one ulp from a
    half-integer (so p < 2**51), the exact product lies on the same side
    of every half-integer as p, and `rint(p)` is the integer `%` prints.
  - `_place` writes an integer's digits with a point ahead of its last
    `decimals`, a minus and padding: `fixed`'s, `integers`' (no point)
    and `scientific`'s significand, ahead of an `e±XX` tail.
A cell that no kernel takes is formatted by `%`, `json.dumps` or `str`
into its slot: one not finite or out of range, a product within one ulp
of a half, for `scientific` or `shortest` a value next to a power of ten
whose floor(log10) is off by one, for `scientific` one whose significand
rounds up to the next power, and for `shortest` a value that `repr`
writes in exponent form (outside [1e-4, 1e16)) or whose nearest grid
integer is a tie. The core's bound on the shift is one trade: `scientific`
sends 1e-12 <= |x| < 2**-35 (about 2.9e-11) to `%` too. A slot widens to
the column's longest text, such as `'%.6f' % 1e300`.

A kernel builds its slots a character position at a time, as the rows of
a (position, value) array, and returns that array's transpose: numpy
works on long rows of values much faster than on short rows of
characters.
"""

from __future__ import annotations

import json

import numpy as np

# rows formatted and written at a time by the file writers, so that no
# section is one string and one slice's slots are held at once
ROW_SLICE = 4096

_NUL, _SPACE, _MINUS, _POINT = 0, ord(" "), ord("-"), ord(".")
# 5**s below 2**63, as `_mul_128` takes them
_POW5 = np.array([5 ** s for s in range(28)], dtype=np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
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


def _place(whole: np.ndarray, negative: np.ndarray, decimals: int,
           width: int = 0) -> np.ndarray:
    """The (position, value) array of `'%{width}.{decimals}f'` of
    whole / 10**decimals for non-negative int64s `whole`, signed where
    `negative`: at least decimals + 1 digits, a point ahead of the last
    `decimals` (none for 0), spaces ahead to `width`, NULs ahead of those
    to the column's longest text."""
    count = max(len(str(int(whole.max(initial=0)))), decimals + 1)
    point = int(decimals > 0)
    slot = max(width, negative.any() + count + point)
    units = slot - decimals - point - 1         # the units digit's position
    positions = np.empty((slot, len(whole)), np.uint8)
    digits = _digits(whole, count)
    # the digits, then those after the point moved past it
    positions[slot - count - point:slot - point] = digits
    positions[slot - decimals:] = digits[count - decimals:]
    positions[units + 1:units + 1 + point] = _POINT
    # each text's first position: its sign, or its first integer digit;
    # the positions ahead of it, all ahead of the units digit, are padding
    first = units - np.searchsorted(_POW10[decimals + 1:count], whole,
                                    side="right") - negative
    ahead = np.arange(units)
    np.copyto(positions[:units], np.where(ahead < slot - width, _NUL,
                                          _SPACE).astype(np.uint8)[:, None],
              where=ahead[:, None] < first)
    positions[first[negative], negative.nonzero()[0]] = _MINUS
    return positions


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
    return _with_fallback(_place(whole, exact & np.signbit(x), decimals,
                                 width),
                          ~exact, x, f"%{width or ''}.{decimals}f".__mod__)


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


def _scaled(x: np.ndarray, digits: int) -> tuple:
    """(taken, E, shift, q, r) per value: whether the core takes it, and
    then E = floor(log10 |x|) and |x| * 10**(digits - 1 - E) = q + r /
    2**shift exactly, for 1 <= shift <= 61; else E = q = r = 0 and
    shift = 1."""
    fraction, power = np.frexp(np.abs(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(np.abs(x)))
    # a value that is 0 or not finite gets s = -1, which the core leaves
    exponent = np.where(np.isfinite(guess), guess, digits).astype(np.int64)
    s = digits - 1 - exponent
    shift = 53 - power - s
    taken = (s >= 0) & (s < len(_POW5)) & (shift >= 1) & (shift <= 61)
    shift = np.where(taken, shift, 1).astype(np.uint64)
    mantissa = (np.where(taken, fraction, 0.0) * 2.0 ** 53).astype(np.uint64)
    high, low = _mul_128(mantissa, _POW5[s * taken])
    q = (high << (np.uint64(64) - shift)) | (low >> shift)
    r = low & ((np.uint64(1) << shift) - np.uint64(1))
    return (taken, exponent * taken, shift.astype(np.int64),
            q.astype(np.int64), r.astype(np.int64))


def scientific(values) -> np.ndarray:
    """The text of `'%.15e' % value` of each value, as NUL-padded `uint8`
    slots, one row each."""
    x = np.asarray(values, dtype=float).ravel()
    exact, exponent, shift, q, r = _scaled(x, 16)
    # half to even: up past the half, or at it from an odd q
    significand = q + (np.sign(r - (1 << (shift - 1))) + q % 2 > 0)
    # floor(log10) may be one off next to a power of ten, as q shows
    # exactly, or the rounding may carry to 10**16: such a cell goes to `%`
    exact &= (q >= 10 ** 15) & (significand < 10 ** 16)
    exact |= x == 0.0                   # 0.000000000000000e+00
    tail = np.full((4, len(x)), ord("e"), np.uint8)
    tail[1] = np.where(exponent < 0, _MINUS, ord("+"))
    tail[2:] = _digits(np.abs(exponent), 2)
    return _with_fallback(
        np.concatenate([_place(significand, np.signbit(x), 15), tail]),
        ~exact, x, "%.15e".__mod__)


def shortest(values) -> np.ndarray:
    """The text that `json.dumps` writes for each value, `repr` of the
    float or `NaN`, `Infinity` or `-Infinity`, as NUL-padded `uint8`
    slots, one row each."""
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    zero = magnitude == 0.0
    exact, exponent, shift, q, r = _scaled(x, 17)
    exact &= (magnitude >= 1e-4) & (magnitude < 1e16)
    # |x| * 10**(16 - exponent) = q + r / 2**shift: in units of
    # 2**-(shift + 2), the rest and the half-widths of the interval that
    # reads back as x (narrower below a power of 2)
    remainder = 4 * r
    scale = shift + 2
    above = 2 * _POW5[16 - exponent].astype(np.int64)
    below = above >> (np.frexp(magnitude)[0] == 0.5)
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
    magnitude = np.abs(v)
    exact = magnitude >= 0          # False for the least int64 only
    return _with_fallback(_place(magnitude * exact, v < 0, 0), ~exact, v, str)


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
