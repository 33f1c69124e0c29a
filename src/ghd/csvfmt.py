"""Byte-exact ``"%.17g" % v`` for whole float arrays, and the table writer.

``write_rows`` renders the rows of ``(prefix, values)`` blocks to a text
file.  It gives the same bytes as formatting every value with
``"%.17g" % v``, but it computes the digits of a chunk of rows at once, in
NumPy, and takes CPython's formatter only for the few values it cannot
certify.

Digits.  For finite |v| in [1e-290, 1e16) let k = floor(log10 |v|), taken
from ``np.log10`` and so correct to within one, and q = 16 - k.  The
scaled value S = |v| 10^q is formed against a table of 10^q stored as
hi = float(10**q), lo = float(10**q - int(hi)) (exact integers at build
time), so |10^q - hi - lo| <= 2^-53 |lo| <= 2^-106 10^q:

    p + e = |v| hi      exactly, Dekker's two-product (hi split at build
                        time, scaled by 2^-600 so that no split overflows)
    t     = fl(e + fl(|v| lo))
    P     = p + floor(t)   (an integer, in int64),  f = t - floor(t)

For S < 2^57, |e| <= 8 and |v lo| <= 2^-53 S < 13, so the three roundings
and the table error leave |P + f - S| < 1e-14.  If P lies outside
[10^16, 10^17), q moves one step (this catches the case log10 rounds up,
e.g. 9.999999999999999e-05, where hi alone gives exactly 10^16 but lo < 0
puts S below it) and S is formed again.

Certification.  A value takes the vector path only when P + f lies
farther than MARGIN = 1e-6 inside [10^16, 10^17) and f lies farther than
MARGIN from 1/2.  Then S lies in the same range, so its 17 digits are those
of round(S), and round(S) = P + (f > 1/2) -- ties to even never arise,
since no tie lies within MARGIN - 1e-14 of the computed value.  A round(S)
of 10^17 carries: the digits become 10^16 and the exponent k + 1.  Every
other value is written by ``"%.17g" % v`` itself: +-0, inf, nan,
|v| < 1e-290, |v| >= 1e16, and the near-ties and near-boundaries the margin
excludes (exact powers of ten among them).  So every byte comes either
from a certified computation or from CPython.

Layout.  The ``%g`` rules with exponent X: fixed notation for
-4 <= X < 17, otherwise d.ddd...e-XX (two exponent digits at least;
X < -4 on the vector path, so the exponent sign is always '-'); trailing
zeros of the fraction dropped, and the point with them when none is left.
Each value gets a slot of SLOT bytes holding every character any layout
might use (see ``_layout_tables``): the sign, the digits twice over, once
as integer-part and once as fraction candidates, each led by the zeros of
0.000ddd, the point between them, the exponent and the separator.  Which
bytes a value keeps depends only on its exponent, the position of its last
nonzero digit and its sign, so its template and keep mask are rows of
tables built at import, and a chunk's unused bytes are dropped by one
boolean compress.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 1024         # rows rendered per NumPy pass

_LOW, _HIGH = 1e-290, 1e16            # the vector path's magnitude range
_E16, _E17 = 10 ** 16, 10 ** 17
MARGIN = 1e-6
_SPLITTER = 134217729.0               # 2^27 + 1


def _split(x):
    """Dekker's split x = h + l, each half of at most 26 significant bits."""
    c = x * _SPLITTER
    h = c - (c - x)
    return h, x - h


def _power_table() -> np.ndarray:
    """Rows hi, lo, and the halves of hi, of 10^q for q = 0 .. 308."""
    powers = np.full(309, 10, dtype=object)
    powers[0] = 1
    powers = np.multiply.accumulate(powers)             # exact integers
    hi = powers.astype(float)
    lo = (powers - np.frompyfunc(int, 1, 1)(hi)).astype(float)
    # split hi scaled into range so that hi * splitter cannot overflow
    hh, _ = _split(hi * 2.0 ** -600)
    hh *= 2.0 ** 600
    return np.stack((hi, lo, hh, hi - hh))


# slot layout: the sign; the integer-part candidates Z0..Z20, where Z0..Z3
# are the zeros of 0.000ddd and Z4..Z20 the 17 digits; the point; the
# fraction candidates Z1..Z20; e, -, three exponent digits; the separator.
# Kept bytes form a few runs per slot, which the final compress takes fast.
_Z = np.arange(21)
_INT_LEAD, _INT_REST = 5, slice(6, 22)          # Z4, Z5 .. Z20 of the integer part
_FRAC_LEAD, _FRAC_REST = 26, slice(27, 43)      # and of the fraction
SLOT = 49
_X_MIN = -300                          # exponents X from _X_MIN to 16 index the tables


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per exponent X, the slot template and the offset of its keep-mask
    rows; and the keep masks of every (layout case, last nonzero digit,
    sign).  The cases are fixed notation for X = -4 .. 16, then d.ddde-XX
    and d.ddde-XXX."""
    X = np.arange(_X_MIN, 17)
    templates = np.zeros((X.size, SLOT), dtype=np.uint8)
    templates[:, 0] = ord("-")
    templates[:, 1:5] = templates[:, 23:26] = ord("0")
    templates[:, 22] = ord(".")
    templates[:, 43:45] = ord("e"), ord("-")
    templates[:, 45:48] = np.abs(X)[:, None] // np.array([100, 10, 1]) % 10 + 48
    case_of_x = np.where(X >= -4, X + 4, np.where(X > -100, 21, 22))

    case = np.arange(23)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    fixed = case < 21
    units = np.where(fixed, case, 4)    # Z index of the units digit
    end = 4 + last                      # Z index of the last nonzero digit
    keep = np.zeros((23, 17, 2, SLOT), dtype=bool)
    keep[..., :1] = neg == 1
    keep[..., 1:22] = (_Z >= np.minimum(units, 4)) & (_Z <= units)
    keep[..., 22:23] = end > units
    keep[..., 23:43] = (_Z[1:] > units) & (_Z[1:] <= end)
    keep[..., 43:45] = ~fixed
    keep[..., 45:46] = case == 22
    keep[..., 46:48] = ~fixed
    keep[..., SLOT - 1] = True
    return templates, case_of_x * 17 * 2, keep.reshape(-1, SLOT)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of 0..9999 as four bytes (one uint32 each), and the trailing
    zeros of 0..9999 written with four digits."""
    digit = np.arange(10)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int8)
    trailing = np.ones((10, 10, 10, 10), dtype=bool)
    for place in range(4):          # from the last digit to the first
        shape = [1, 1, 1, 1]
        shape[3 - place] = 10
        quads[..., 3 - place] = (digit + 48).reshape(shape)
        trailing = trailing & (digit == 0).reshape(shape)
        zeros += trailing
    return quads.view(np.uint32).ravel(), zeros.ravel()


_POW = _power_table()
_TEMPLATES, _KEEP_ROW, _KEEP = _layout_tables()
_QUADS, _TRAILING = _digit_tables()


def _scaled(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part P (int64) and fraction f of a * 10^q, to within 1e-14."""
    hi, lo, hh, hl = _POW[:, q]
    p = a * hi
    ah, al = _split(a)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    t = e + a * lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _cells(v: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """Slots (n, SLOT) uint8 and their keep mask for the float values v (1-D):
    the kept bytes of slot i are ``"%.17g" % v[i]`` followed by sep."""
    a = np.abs(v)
    fast = (a >= _LOW) & (a < _HIGH)
    a = np.where(fast, a, 1.0)
    q = 16 - np.floor(np.log10(a)).astype(np.intp)
    P, f = _scaled(a, q)
    step = (P < _E16).astype(np.intp) - (P >= _E17)
    redo = np.flatnonzero(step)
    if redo.size:
        q[redo] += step[redo]
        P[redo], f[redo] = _scaled(a[redo], q[redo])
    fast &= (((P - _E16) + f > MARGIN) & ((_E17 - P) - f > MARGIN)
             & (np.abs(f - 0.5) > MARGIN))

    D = P + (f > 0.5)
    carry = D == _E17
    D[carry] = _E16
    xi = 16 - _X_MIN - q + carry          # X - _X_MIN
    # D = lead 10^16 + the four-digit groups g[:, 0..3]
    lead = D // _E16
    rest = D - lead * _E16
    upper = rest // 10 ** 8
    halves = np.stack((upper, rest - upper * 10 ** 8), axis=1)
    g = np.empty((v.size, 4), dtype=np.intp)
    g[:, ::2] = halves // 10 ** 4
    g[:, 1::2] = halves - g[:, ::2] * 10 ** 4
    tz = _TRAILING[g]
    zero = tz == 4
    last = 16 - (tz[:, 3] + zero[:, 3] * (tz[:, 2] + zero[:, 2] * (
        tz[:, 1] + zero[:, 1] * tz[:, 0])))

    cells = np.take(_TEMPLATES, xi, axis=0, mode="clip")
    cells[:, SLOT - 1] = ord(sep)
    cells[:, _INT_LEAD] = cells[:, _FRAC_LEAD] = lead + 48
    cells[:, _INT_REST] = cells[:, _FRAC_REST] = _QUADS[g].view(np.uint8)
    keep = np.take(_KEEP, np.take(_KEEP_ROW, xi, mode="clip") + 2 * last + (v < 0),
                   axis=0, mode="clip")

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        text = text.view(np.uint8).reshape(slow.size, 24)
        cells[slow, :24] = text
        keep[slow, :SLOT - 1] = False
        keep[slow, :24] = text != 0
    return cells, keep


def _field_bytes(fields: list) -> np.ndarray:
    """(len(fields), width) uint8 of ASCII strings, NUL-padded."""
    arr = np.array(fields, dtype="S")
    return arr.view(np.uint8).reshape(len(fields), arr.dtype.itemsize)


def _render(pieces: list, keys: np.ndarray | None, sep: str) -> str:
    """Text of the rows of ``pieces``, (prefix, values, first key) triples."""
    prefixes = _field_bytes([prefix for prefix, _, _ in pieces])
    values = np.concatenate([vals for _, vals, _ in pieces])
    rows, cols = values.shape
    head = prefixes.shape[1] + (0 if keys is None else keys.shape[1])
    body = slice(head, head + cols * SLOT)
    buf = np.empty((rows, body.stop + 1), dtype=np.uint8)
    start, width = 0, prefixes.shape[1]
    for prefix, (_, vals, first) in zip(prefixes, pieces):
        stop = start + len(vals)
        buf[start:stop, :width] = prefix
        if keys is not None:
            buf[start:stop, width:head] = keys[first:first + len(vals)]
        start = stop
    keep = np.empty(buf.shape, dtype=bool)
    np.not_equal(buf[:, :head], 0, out=keep[:, :head])
    cells, kept = _cells(values.ravel(), sep)
    buf[:, body] = cells.reshape(rows, -1)
    keep[:, body] = kept.reshape(rows, -1)
    keep[:, body.stop - 1] = False             # no separator after the last field
    buf[:, -1] = ord("\n")
    keep[:, -1] = True
    return buf[keep].tobytes().decode("ascii")


def write_rows(fh, blocks, keys=None, sep: str = ",") -> None:
    """Write the rows of every ``(prefix, values)`` block to the text file fh.

    Row j of a block is ``prefix``, then ``keys[j]`` when ``keys`` is given,
    then the fields of ``values[j]`` as ``"%.17g"`` joined by ``sep``.
    Rows of consecutive blocks with the same number of columns are rendered
    together, CHUNK_ROWS at a time.
    """
    keys = None if keys is None else _field_bytes(list(keys))
    pending, rows = [], 0
    for prefix, values in blocks:
        values = np.asarray(values, dtype=float)
        if pending and values.shape[1] != pending[0][1].shape[1]:
            fh.write(_render(pending, keys, sep))
            pending, rows = [], 0
        for first in range(0, len(values), CHUNK_ROWS):
            pending.append((prefix, values[first:first + CHUNK_ROWS], first))
            rows += len(pending[-1][1])
            if rows >= CHUNK_ROWS:
                fh.write(_render(pending, keys, sep))
                pending, rows = [], 0
    if pending:
        fh.write(_render(pending, keys, sep))
