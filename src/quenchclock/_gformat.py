"""printf ``%.{p}g`` of many doubles at once, to the bytes of ``%``.

:func:`format_g` takes the ``p`` digits of each value from one rounding
of its scaled value ``|x| 10**(p-1-E)``, formed as a double-double from
a table of powers of ten (Steele and White, PLDI 1990; Adams, OOPSLA
2019; Dekker, Numer. Math. 18, 1971).  Only exact integer arithmetic
and the floating-point ``+ - *``, ``floor``, ``frexp`` and ``ldexp``
decide a digit; ``log10`` only guesses ``E``, which is then checked, so
the bytes do not depend on the host's vector loops.  Zeros, infinities,
nans and values within 2**-40 of a rounding tie are left to ``%``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Precisions the kernel serves: its digits fit an int64 in two uint32 halves.
PRECISIONS = range(1, 18)
# Values per kernel pass, which bounds its temporaries.
_CHUNK = 4096
# A scaled value whose fraction lies this close to 1/2 may be a tie, or
# too near one for the double-double, good to about 2**-46 here, to round.
_TIE_WINDOW = 2.0 ** -40
# Decimal scales of the powers-of-ten table: p - 1 - E, and one more
# either way, for p <= 17 and every double's exponent E in [-324, 308].
_POW10_MIN, _POW10_MAX = -310, 345
# Veltkamp's splitter: c = x * _SPLIT gives x's high 26 bits as c - (c - x).
_SPLIT = 2.0 ** 27 + 1.0
# The "0.000" before the digits of a fixed value with E < 0: character j
# is printed from E = _LEAD_DECADES[j] down.
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_DECADES = np.array([-1, -1, -2, -3, -4], dtype=np.int32)[:, None]


def format_g(values: np.ndarray, p: int) -> list[str]:
    """``"%.{p}g" % v`` for every float64 ``v``, ``p`` in :data:`PRECISIONS`."""
    texts = []
    for start in range(0, values.size, _CHUNK):
        texts += _format_chunk(values[start:start + _CHUNK], p)
    return texts


def _format_chunk(x: np.ndarray, p: int) -> list[str]:
    """The texts of one chunk.

    The digits are ``n = round(y)``, half to even, of ``y = |x|
    10**(p-1-E)``, where the decimal exponent ``E`` puts ``y`` itself, not
    ``n``, in ``[10**(p-1), 10**p)``; an ``n`` that rounds up to ``10**p``
    is ``10**(p-1)`` at ``E + 1``.
    """
    ax = np.abs(x)
    special = ~np.isfinite(ax) | (ax == 0.0)
    ax[special] = 1.0
    m, e = np.frexp(ax)
    E = np.floor(np.log10(ax)).astype(np.int32)
    n, frac = _scaled(m, e, p - 1 - E)
    low, top = 10 ** (p - 1), 10 ** p
    off = np.flatnonzero((n < low) | (n >= top))
    if off.size:
        E[off] += np.where(n[off] < low, -1, 1).astype(np.int32)
        n[off], frac[off] = _scaled(m[off], e[off], p - 1 - E[off])
    fallback = special | (np.abs(frac - 0.5) < _TIE_WINDOW)
    # A guess off by more than one, which log10 does not make, goes to `%`.
    fallback[off] |= (n[off] < low) | (n[off] >= top)
    n += frac > 0.5
    carry = n == top
    n[carry] = low
    E += carry
    texts = _layout(x, n, E, p).split("\n")
    texts.pop()
    code = f"%.{p}g"
    for i in np.flatnonzero(fallback).tolist():
        texts[i] = code % float(x[i])
    return texts


def _layout(x: np.ndarray, n: np.ndarray, E: np.ndarray, p: int) -> str:
    """The C99 ``%g`` texts, each ended by a newline, of values with the
    signs of ``x``, ``p`` digits ``n`` and decimal exponents ``E``: fixed
    for ``-4 <= E < p``, else ``d.ddde+XX``, trailing zeros and a bare
    point dropped.

    Each value fills one column of a uint8 array, NUL in the slots it
    does not use: sign, the ``0.000`` of a small fixed value, the digits
    with the point, and the exponent.
    """
    k = x.size
    rank = np.arange(p + 1, dtype=np.int8)
    digits = np.empty((p, k), dtype=np.uint8)
    high = (n // 10 ** 8).astype(np.uint32)
    part = (n - high.astype(np.int64) * 10 ** 8).astype(np.uint32)
    ten = np.uint32(10)
    for j in range(p - 1, -1, -1):
        if j == p - 9:
            part = high
        q = part // ten
        digits[j] = part - q * ten
        part = q
    nsig = np.maximum.reduce((digits != 0) * rank[1:, None], axis=0)
    digits += np.uint8(ord("0"))
    fixed = (E >= -4) & (E < p)
    # Digits printed: the significant ones, and a fixed value's integer part.
    shown = np.where(fixed, np.maximum(nsig, E + 1), nsig).astype(np.int8)
    digits *= rank[1:, None] <= shown
    # The point follows digit `point`; at -1 the "0." before the digits has it.
    point = np.where(fixed, np.maximum(E, -1), 0).astype(np.int8)
    text = np.empty((13 + p, k), dtype=np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    # "0." from E = -1 on, and one more zero for each decade below.
    text[1:6] = (fixed & (E <= _LEAD_DECADES)) * _LEAD
    # Row c of the digit area holds digit c left of the point and digit
    # c - 1 right of it, selected by uint8 products; then the point.
    area = text[6:7 + p]
    area[0] = digits[0]
    np.subtract(digits[:-1], digits[1:], out=area[1:p])
    area[1:p] *= rank[1:p, None] > point
    area[1:p] += digits[1:]
    area[p] = digits[-1]
    at = rank[:, None] == point + 1
    area *= ~at
    area += at * (((nsig > point + 1) & (point >= 0)) * np.uint8(ord(".")))
    sci = ~fixed
    mag = np.abs(E).astype(np.uint16)
    text[7 + p] = sci * np.uint8(ord("e"))
    text[8 + p] = sci * (np.uint8(ord("+")) + (E < 0) * np.uint8(2))
    text[9 + p] = (sci & (mag >= 100)) * (mag // 100 + ord("0"))
    text[10 + p] = sci * (mag // 10 % 10 + ord("0"))
    text[11 + p] = sci * (mag % 10 + ord("0"))
    text[12 + p] = ord("\n")
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def _scaled(m, e, s):
    """``floor(y)`` as int64 and ``y - floor(y)`` for ``y = m 2**e 10**s``,
    with ``m`` in [1/2, 1).

    ``y`` is a double-double ``yh + yl``: Dekker's TwoProduct gives
    ``m * hi`` exactly, and ``m * lo`` and the sums add a relative error
    of about 2**-103.
    """
    hi, hi_high, hi_low, lo, b = (t.take(s - _POW10_MIN) for t in _pow10_table())
    ph = m * hi
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    t = (((mh * hi_high - ph) + mh * hi_low + ml * hi_high) + ml * hi_low) + m * lo
    yh = ph + t
    yl = np.ldexp(t - (yh - ph), e + b)
    yh = np.ldexp(yh, e + b)
    whole = np.floor(yh)
    r = (yh - whole) + yl
    carry = np.floor(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """``10**s ~ (hi + lo) * 2**b`` for ``s`` from _POW10_MIN to
    _POW10_MAX, to 106 bits: ``hi`` in [1, 2) with its two Veltkamp halves,
    ``0 <= lo < 2**-52`` and ``b``, from integer arithmetic alone."""
    rows = []
    for s in range(_POW10_MIN, _POW10_MAX + 1):
        if s >= 0:
            shift = (10 ** s).bit_length() - 106
            m = 10 ** s >> shift if shift >= 0 else 10 ** s << -shift
        else:
            shift = -(10 ** -s).bit_length() - 105
            m = (1 << -shift) // 10 ** -s
        hi = math.ldexp(m >> 53, -52)
        c = hi * _SPLIT
        hi_high = c - (c - hi)
        rows.append((hi, hi_high, hi - hi_high, math.ldexp(m & (2 ** 53 - 1), -105),
                     shift + 105))
    *floats, b = zip(*rows)
    table = (*map(np.array, floats), np.array(b, dtype=np.int32))
    for column in table:
        column.flags.writeable = False
    return table
