"""CSV lines of table columns, formatted in bulk with numpy.

`csv_lines(columns)` turns equal-length columns into the bytes of CSV
lines, one chunk per block of about BLOCK_CELLS cells.  A column's dtype
sets the format of its cells: a float is written as Python's
``'%.17g' % x`` writes it, an integer (or bool) as ``'%d'`` and a text as
``'%s'``; the bytes are the ones the per-cell % operator gives.

Every cell goes through one path.  An integer column whose values all
lie in [-2^53, 2^53] is converted to float64, whose '%.17g' is exactly
the integer's '%d', so a block is one (rows, columns) float64 array.
Each cell is written into a fixed-width uint8 slot that holds every
character it can need, and a keep-mask row per cell, taken from a small
table, selects the characters of its format; one np.compress compacts
the block.  A float cell's 17 significant digits are exact: the double
is scaled by 10^(16 - e) as a double-double product against a table of
exact (hi, lo) powers of ten, which leaves an error below 1e-14 on a
value of order 1e16, and the digits come out of the rounded int64
mantissa by integer arithmetic.  A cell this cannot prove is written by
Python's own % operator into the start of its slot: a non-finite value,
|x| outside [1e-280, 1e280] (where the table's lo parts would lose
bits), a scaled value within 1e-6 of a rounding tie, an integer column
with a value beyond 2^53, and text.  A cell of more than 47 bytes (its
slot less the separator) is refused.

This module opens no file; `volkovfp.cli` writes the bytes.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BLOCK_CELLS = 4096

# A float cell's slot, six 8-byte words: the sign, "0.000" (the lead of
# -4 <= e < 0), digit 0 and a point; four times four digits, each with a
# point after it; then "e", the exponent's sign and three digits, two
# unused bytes and the separator.  Digit j sits at 6 + 2j.
_F_WIDTH = 48
_FORMS = 23  # fixed notation for e = -4..16, then e+dd and e+ddd
_ZERO_ROW = 2 * _FORMS * 17  # then "0" and "-0", then a kept prefix of n bytes
_PREFIX_ROW = _ZERO_ROW + 2
_EXACT_INT = 2 ** 53  # every integer up to it in magnitude is a double

_EXACT_RANGE = (1e-280, 1e280)
# k = 16 - e over the exponents e of |x| in _EXACT_RANGE, one step either side
_K_LO, _K_HI = -266, 299
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_TIE = 0.5 - 1e-6


def _words(items, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(items), dtype=dtype)


@cache
def _tables() -> dict:
    """Tables built on first use, indexed by exponent index i = k - _K_LO
    or by digits: the powers of ten 10^k as (hi, hi's two 26-bit halves,
    lo) with hi + lo = 10^k to about 2^-107, the slot words and the keep
    masks."""
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            exact = 10 ** k
            h = float(exact)
            residual = float(exact - int(h))
        else:
            scale = 10 ** -k
            h = 1 / scale  # int true division rounds correctly
            num, den = h.as_integer_ratio()
            residual = (den - num * scale) / (den * scale)
        hi.append(h)
        lo.append(residual)
    hi = np.array(hi)
    big = hi * _VELTKAMP
    hi1 = big - (big - hi)

    e = 16 - np.arange(_K_LO, _K_HI + 1)
    form = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) < 100, 21, 22))

    keep = np.zeros((_PREFIX_ROW + _F_WIDTH, _F_WIDTH), dtype=bool)
    keep[:, -1] = True
    for f in range(_FORMS):
        for sign in (0, 1):
            for sig in range(1, 18):
                row = keep[f * 34 + sign * 17 + sig - 1]
                row[0] = sign
                if f < 21:
                    x = f - 4
                    if x < 0:
                        row[1:2 - x] = True  # "0." and -x - 1 zeros
                        digits = sig
                    else:
                        digits = max(sig, x + 1)
                        row[7 + 2 * x] = sig > x + 1
                else:
                    digits = sig
                    row[7] = sig > 1
                    row[40:45] = True
                    row[42] = f == 22
                row[6:6 + 2 * digits:2] = True
    keep[_ZERO_ROW, 1] = keep[_ZERO_ROW + 1, :2] = True
    for n in range(_F_WIDTH):
        keep[_PREFIX_ROW + n, :n] = True

    # the ASCII digits of every 4-digit chunk, and with a point after each
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    pointed = np.full((10000, 8), ord("."), dtype=np.uint8)
    pointed[:, ::2] = digits
    sig4 = np.max((digits != ord("0")) * np.arange(1, 5, dtype=np.uint8), axis=1)
    return {
        "pow10": (hi, hi1, hi - hi1, np.array(lo)),
        "lead": _words((b"-0.000%d." % d for d in range(10)), np.uint64),
        "chunk": pointed.view(np.uint64).ravel(),
        "exponent": _words((b"e%+04d\0\0," % v for v in e), np.uint64),
        # the significant digits up to and with chunk j's last nonzero digit
        "sig": [np.where(sig4 > 0, 4 * j - 3 + sig4, 1) for j in range(1, 5)],
        "form_row": form * 34 - 1,
        "keep": keep,
    }


def _scaled(a, i, pow10):
    """a * 10^k, k = _K_LO + i, as a double-double (hi, lo), |lo| <= ulp(hi) / 2.

    Dekker's product: a * hi splits exactly into p + err; a * lo adds
    its own rounding, far below 1e-14 on a product of order 1e16.
    """
    hi, hi1, hi2, lo = (t.take(i, mode="clip") for t in pow10)
    big = a * _VELTKAMP
    a1 = big - (big - a)
    a2 = a - a1
    p = a * hi
    err = a1 * hi1 - p
    err += a1 * hi2
    err += a2 * hi1
    err += a2 * hi2
    err += a * lo
    s = p + err
    return s, err - (s - p)


def _mantissas(a, pow10):
    """The 17-digit mantissa N (int64, 10^16 <= N < 10^17), its exponent
    index i (|x| rounds to N * 10^-(_K_LO + i)) and a mask of the cells
    whose rounding is within 1e-6 of a tie.

    The estimate e = floor(log10 a) can miss by one next to a power of
    ten; such a cell's scaled value falls outside [1e16, 1e17) and is
    scaled again with e one off.  A double that is not a power of ten is
    at least 2.7e-19 relatively from one (|e| <= 290), 2.7e-3 on the
    scaled value, so comparing the double-double with 1e16 and 1e17 to
    within 1e-6 decides every cell: a power of ten scales to 1e16 within
    the product's error.
    """
    i = (16 - _K_LO - np.floor(np.log10(a))).astype(np.intp)
    hi, lo = _scaled(a, i, pow10)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:
        h, l = hi[near], lo[near]
        step = ((h - 1e16) + l < -1e-6).astype(np.intp) - ((h - 1e17) + l >= -1e-6)
        wrong = near[step != 0]
        i[wrong] += step[step != 0]
        hi[wrong], lo[wrong] = _scaled(a[wrong], i[wrong], pow10)
    rounded = np.rint(lo)
    tie = np.abs(lo - rounded) > _TIE
    mantissa = hi.astype(np.int64)
    mantissa += rounded.astype(np.int64)
    carry = np.flatnonzero(mantissa == 10 ** 17)
    mantissa[carry] = 10 ** 16
    i[carry] -= 1
    return mantissa, i, tie


def _chunks(n):
    """The leading digit of each 17-digit n and its four 4-digit chunks."""
    q = n // 100000000
    r = n - q * 100000000
    t = q // 10000
    d0 = t // 10000
    c3 = r // 10000
    return d0, t - d0 * 10000, q - t * 10000, c3, r - c3 * 10000


def _float_slots(x: np.ndarray, tables):
    """Slots (n, _F_WIDTH) of the float cells x and the keep-mask row of
    each, as '%.17g'."""
    a = np.abs(x)
    exact = (a >= _EXACT_RANGE[0]) & (a <= _EXACT_RANGE[1])
    # a cell formatted otherwise is scaled as 3.0, away from a power of ten
    mantissa, i, tie = _mantissas(np.where(exact, a, 3.0), tables["pow10"])
    d0, *chunks = _chunks(mantissa)
    words = np.empty((6, x.size), dtype=np.uint64)
    tables["lead"].take(d0, out=words[0], mode="clip")
    for word, c in zip(words[1:], chunks):
        tables["chunk"].take(c, out=word, mode="clip")
    tables["exponent"].take(i, out=words[5], mode="clip")
    slots = np.ascontiguousarray(words.T).view(np.uint8)

    sig = tables["sig"][0].take(chunks[0], mode="clip")
    for t, c in zip(tables["sig"][1:], chunks[1:]):
        np.maximum(sig, t.take(c, mode="clip"), out=sig)
    sign = np.signbit(x)
    row = tables["form_row"].take(i, mode="clip")
    row += sig
    row += 17 * sign
    zero = np.flatnonzero(a == 0)
    row[zero] = _ZERO_ROW + sign[zero]
    python = np.flatnonzero(tie | ~exact & (a != 0))
    if python.size:
        row[python] = _PREFIX_ROW + _python_cells(x[python], "%.17g", python, slots)
    return slots, row


def _python_cells(values: np.ndarray, fmt: str, cells: np.ndarray, slots) -> np.ndarray:
    """Write Python's own `fmt % values[n]`, UTF-8, into the start of slot
    cells[n]; the lengths written.  A cell must leave its slot's last
    byte, the separator, free."""
    lengths = np.empty(cells.size, dtype=np.intp)
    for n, (j, value) in enumerate(zip(cells.tolist(), values.tolist())):
        text = (fmt % (value,)).encode()
        if len(text) >= _F_WIDTH:
            raise ValueError(f"a CSV cell is at most {_F_WIDTH - 1} bytes, got {len(text)}")
        slots[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        lengths[n] = len(text)
    return lengths


def _column(values) -> tuple[np.ndarray, tuple[np.ndarray, str] | None]:
    """A column's cells as float64 and, for a column they cannot stand for
    (text, or an integer beyond 2^53), its values and their Python format;
    a dtype that does not cast safely (uint64, longdouble) is refused."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError(f"a column must be 1-D, got shape {column.shape}")
    kind = column.dtype.kind
    if kind == "f":
        return column.astype(np.float64, copy=False, casting="safe"), None
    if kind in "biu":
        column = column.astype(np.int64, copy=False, casting="safe")
        # bounds on the values, not on np.abs: -2^63 has no int64 magnitude
        if np.all((column >= -_EXACT_INT) & (column <= _EXACT_INT)):
            return column.astype(np.float64), None
        return np.zeros(column.size), (column, "%d")
    if kind in "UO":
        return np.zeros(column.size), (column, "%s")
    raise TypeError(f"no cell format for a column of dtype {column.dtype}")


def csv_lines(columns):
    """The CSV lines of equal-length columns, yielded as bytes per block
    of about BLOCK_CELLS cells: cells joined by ',', each line ending in
    a newline.  Nothing is yielded for columns of length 0."""
    typed = [_column(c) for c in columns]
    n_rows = {x.size for x, _ in typed}
    if len(n_rows) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(n_rows)}")
    n_rows = n_rows.pop() if n_rows else 0
    if not n_rows:
        return
    tables = _tables()
    width = len(typed)
    step = max(1, BLOCK_CELLS // width)
    for start in range(0, n_rows, step):
        block = np.stack([x[start:start + step] for x, _ in typed], axis=1)
        slots, row = _float_slots(block.ravel(), tables)
        for j, (_, fallback) in enumerate(typed):
            if fallback is not None:
                values, fmt = fallback
                cells = np.arange(j, block.size, width)
                row[cells] = _PREFIX_ROW + _python_cells(values[start:start + step], fmt, cells,
                                                         slots)
        slots[width - 1::width, -1] = ord("\n")
        yield np.compress(tables["keep"].take(row, axis=0).ravel(), slots.ravel()).tobytes()
