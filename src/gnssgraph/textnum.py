"""Columns of numbers as the text that `%` formats, for whole arrays.

`fixed(values, decimals, width)` gives the text of `'%{width}.{decimals}f'`
and `scientific(values)` that of `'%.15e'`, byte for byte, one row of
`uint8` per value: the text right-aligned in a slot common to the column
and padded on its left with NULs. A writer puts such slots and constant
separators side by side in one byte matrix and drops the NULs (`text`).

CPython's `%` prints the decimal that its value rounds to, half to even,
from the exact binary value (Gay 1990). The kernels find that decimal
with exact arithmetic:
  - `fixed` scales |x| by 10**decimals, an exact power for decimals <= 22,
    in one rounded product p. When p lies more than one ulp from a
    half-integer (so p < 2**51), the exact product lies on the same side
    of every half-integer as p, and `rint(p)` is the integer `%` prints.
  - `scientific` writes |x| = m * 2**e (m < 2**53) and its 16 digits as
    m * 5**s * 2**(e + s) for s = 15 - floor(log10 |x|). For s <= 27,
    m * 5**s < 2**117 is held exactly in two 64-bit limbs, then shifted
    right with a guard bit and a sticky bit for round-half-even.
A cell that neither kernel takes is formatted by `%` into its slot: one
not finite or out of range, a product within one ulp of a half, or, for
`scientific`, a value next to a power of ten whose floor(log10) is off by
one or whose significand rounds up to the next power. A slot widens to
the column's longest text, such as `'%.6f' % 1e300`.

A kernel builds its slots a character position at a time, as the rows of
a (position, value) array, and returns that array's transpose: numpy
works on long rows of values much faster than on short rows of
characters.
"""

from __future__ import annotations

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
                   values: np.ndarray, template: str) -> np.ndarray:
    """The slots of a (position, value) array, one row per value, with
    the text of `template % value` in each row of `cells`, right-aligned;
    widened on the left to the longest such text."""
    slots = positions.T
    texts = [template % value for value in values[cells].tolist()]
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
    return _with_fallback(positions, ~exact, x, f"%{width or ''}.{decimals}f")


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
    return _with_fallback(positions, ~exact, x, "%.15e")


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
