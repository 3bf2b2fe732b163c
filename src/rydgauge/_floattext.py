"""Decimal text for a whole float64 block at once, byte for byte as the builtins.

As ASCII bytes, ``csv_rows`` gives ``f"{x:.16e}"`` cells joined by ``,`` with
``\\n`` after each row, ``json_rows`` gives ``json.dumps(block.tolist())[1:-1]``.
Each value is scaled to X = |x| 10^(16-k), k = floor(log10|x|), by an
error-free Dekker product with 10^(16-k) held as hi + lo doubles.  For
0 <= 16-k <= 22 the scale is exact and ties are decided exactly; otherwise
X is known to about 1e-14 units and, as in Grisu3 (Loitsch, PLDI 2010),
every value whose rounding that error could change goes to the builtin.
The shortest digits follow Steele & White (PLDI 1990): the largest power of
ten with a multiple inside the round-trip interval, and the multiple
nearest X.  Non-finite values, zeros and |x| outside [1e-280, 1e280] also
go to the builtin.  Each float step is its own ufunc call, so none is
contracted into a fused multiply-add.
"""

from __future__ import annotations

import json

import numpy as np

_S_MIN, _S_MAX = -266, 298  # scales 16 - k for |x| in [1e-280, 1e280], k off by one
_UNSURE = 1e-9  # band, in units of X, around a tie or interval end sent to the builtin
_P16, _P17 = 10**16, 10**17
_E = 400  # exponents -_E.._E index the tail table from 2
_CSV_CELL, JSON_CELL = 27, 34  # bytes of a value's cell before its pads drop


def _pow10_table() -> tuple:
    """hi, hi's two Veltkamp halves and lo, with hi + lo = 10^s to ~2^-106."""
    ratios = [(10**s, 1) if s >= 0 else (1, 10**-s) for s in range(_S_MIN, _S_MAX + 1)]
    hi = [num / den for num, den in ratios]  # int true division rounds correctly
    lo = [(num * h_den - h_num * den) / (den * h_den)
          for (num, den), (h_num, h_den) in zip(ratios, map(float.as_integer_ratio, hi))]
    hi = np.array(hi)
    c = hi * 134217729.0  # 2^27 + 1
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


def _words(texts) -> np.ndarray:
    """One zero-padded 8-byte word per text: cells are built from whole words."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), np.uint64)


def _digit_masks() -> tuple:
    """Per (shown digits, digit the "." follows) class: digits left and right of the ".", and it.
    Plain Python: numpy kernels that formatting never runs would fault in code pages."""
    classes = [(shown, dot) for shown in range(18) for dot in range(18)]
    left = bytes(i < shown and i <= dot for shown, dot in classes for i in range(17))
    right = bytes(i < shown and i > dot for shown, dot in classes for i in range(17))
    point = bytes(46 * (i == dot + 1) for _, dot in classes for i in range(18))
    return tuple(np.frombuffer(mask, np.uint8).reshape(len(classes), -1)
                 for mask in (left, right, point))


_TABLE = _pow10_table()
# JSON heads: a slot for "[", the sign, then for z = 1..4 "0." and z - 1 zeros; class sign + 2 z
_HEADS = _words(b"\0" + sign + (b"0." + b"0" * (z - 1) if z else b"")
                for z in range(5) for sign in (b"", b"-"))
# tails: nothing, the "0" of "12.0", or the exponent "e+05"; bytes 5-7 take the separator
_TAILS = _words([b"", b"0"] + [b"e%+03d" % e for e in range(-_E, _E + 1)])
_SEPARATORS = _words(b"\0" * 5 + sep for sep in (b",", b"\n", b", ", b"], ", b"]"))
_LEFT, _RIGHT, _POINT = _digit_masks()


def _scaled(a: np.ndarray, k: np.ndarray):
    """X = a 10^(16-k) as p + t: p = fl(a hi), t the exact product error plus a lo.
    Dekker's error al hl - (((p - ah hh) - al hh) - ah hl), built in place."""
    i = 16 - k - _S_MIN
    hi, hh, hl, lo = _TABLE
    p = a * hi.take(i)
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    h = hh.take(i)
    t = p - ah * h
    t -= al * h
    h = hl.take(i)
    t -= ah * h
    np.subtract(al * h, t, out=t)
    t += a * lo.take(i)
    return p, t


def _decimal(x: np.ndarray):
    """|x| (1.0 where out of range), k, floor(X), X rounded half to even, X's fraction, in range.
    floor(X) is in [1e16, 1e17) but where X is within the product's error of
    a bound: there it may read 1e16 - 1 or 1e17, and X rounds the same."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    # log2(a) ~ its bits / 2^52 - 1023 within 0.09: k is right or one off
    k = np.floor((a.view(np.int64) * 2.0**-52 - 1023) * 0.3010299956639812).astype(np.int64)
    p, t = _scaled(a, k)
    fl = p.astype(np.int64) + np.floor(t).astype(np.int64)
    step = (fl >= _P17).view(np.int8) - (fl < _P16).view(np.int8)
    off = np.flatnonzero(step)
    k[off] += step[off]
    p[off], t[off] = _scaled(a[off], k[off])
    fl[off] = p[off].astype(np.int64) + np.floor(t[off]).astype(np.int64)
    n = p.astype(np.int64) + np.rint(t).astype(np.int64)  # p is even: t's rounding is X's
    return a, k, fl, n, t - np.floor(t), fast


def _shortest(x: np.ndarray):
    """Shortest round-trip digits as a 17-digit N, their count and exponent k."""
    a, k, f, n, fr, fast = _decimal(x)
    fast &= np.abs(fr - 0.5) >= _UNSURE  # a 17-digit tie: dtoa picks by its own rule
    # half the gaps to a's neighbours in units of X: 2^(e - 53), below a power of two 2^(e - 54)
    bits = a.view(np.int64)
    ten = _TABLE[0].take(16 - k - _S_MIN)
    hi = (((bits >> 52) - 53) << 52).view(np.float64) * ten
    lo = (((bits >> 52) - 53 - (bits & (1 << 52) - 1 == 0)) << 52).view(np.float64) * ten
    del a, bits, ten  # fewer arrays alive while the loop makes its own
    drop = np.zeros(n.size, np.int64)  # trailing zeros j of the digits
    live, cand = np.arange(n.size), n  # values with a multiple of 10^(j-1) inside, its choice
    for j in range(1, 19):  # 10^18 has no multiple inside: every value stops
        step = 10**j
        q = f // step
        r = f - q * step
        d_lo = r + fr  # X minus the multiple of 10^j below it
        d_hi = (step - r) - fr  # the multiple above it minus X
        in_lo, in_hi = d_lo < lo, d_hi < hi
        unsure = ((np.abs(d_lo - lo) < _UNSURE) | (np.abs(d_hi - hi) < _UNSURE)
                  | (in_lo & in_hi & (np.abs(d_lo - d_hi) < _UNSURE)))
        if unsure.any():
            fast[live[unsure]] = False
        ok = in_lo | in_hi
        done = np.flatnonzero(~ok)
        n[live[done]], drop[live[done]] = cand[done], j - 1
        kept = np.flatnonzero(ok)
        if not kept.size:
            break
        up = in_hi & ~(in_lo & (d_lo < d_hi))  # the nearer multiple inside
        cand = (q + up).take(kept) * step
        live, f, fr, lo, hi = (v.take(kept) for v in (live, f, fr, lo, hi))
    carry = n == _P17
    n[carry], drop[carry] = _P16, 16
    return n, 17 - drop, k + carry, fast


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each 17-digit integer, most significant first."""
    out = np.empty((n.size, 17), np.uint8)
    top = n // 10**8
    for v, places in ((n - top * 10**8, range(16, 8, -1)), (top, range(8, -1, -1))):
        v = v.astype(np.uint32)  # halves below 10^9: 32-bit division is cheaper
        for i in places:
            q = v // 10
            out[:, i] = v - q * 10
            v = q
    out += 48
    return out


def _tails(cells: np.ndarray, rows: int, cols: int, tail: np.ndarray, separators) -> None:
    """Tail words in the last eight slots; ``separators`` index ``_SEPARATORS`` inside a row,
    at its end and at the block's end."""
    inner, row_end, block_end = _SEPARATORS.take(separators)
    words = _TAILS.take(tail).reshape(rows, cols)
    words[:, :-1] |= inner
    words[:, -1] |= row_end
    if rows:
        words[-1, -1] ^= row_end ^ block_end  # swaps the row's separator for the block's
    cells[:, -8:] = words.reshape(-1, 1).view(np.uint8)


def _csv_cells(x: np.ndarray, rows: int, cols: int):
    """Cells of sign, 17 digits rounded half to even and tail word; the mask of values they hold."""
    _, k, _, n, frac, fast = _decimal(x)
    fast &= (k >= -6) & (k <= 16) | (np.abs(frac - 0.5) >= _UNSURE)  # exact X: 0 <= 16-k <= 22
    carry = n == _P17
    n[carry] = _P16
    cells = np.empty((x.size, _CSV_CELL), np.uint8)
    cells[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    digits = _digits(n)
    cells[:, 1] = digits[:, 0]
    cells[:, 2] = 46
    cells[:, 3:19] = digits[:, 1:]
    _tails(cells, rows, cols, k + carry + (_E + 2), (0, 1, 1))
    return cells, fast


def _json_cells(x: np.ndarray, rows: int, cols: int):
    """Cells of head word, digits with their "." and tail word, and the mask of values they hold."""
    n, nd, k, fast = _shortest(x)
    sci = (k < -4) | (k > 15)  # repr: exponent form when the point is at <= -4 or > 16
    lead = ~sci & (k < 0)  # "0.", then -k - 1 zeros
    whole = ~sci & ~lead
    cells = np.empty((x.size, JSON_CELL), np.uint8)
    cells[:, :8] = _HEADS.take(np.signbit(x) + 2 * np.where(lead, -k, 0))[:, None].view(np.uint8)
    cells.reshape(rows, cols, JSON_CELL)[:, 0, 0] = 91  # "[" opens each row
    # a whole number shows its digits up to the point, trailing zeros too
    shown = np.where(whole, np.maximum(nd, k + 1), nd)
    dot = np.where(whole, k, np.where(sci & (nd > 1), 0, 17))  # digit the "." follows
    mask = shown * 18 + dot
    digits = _digits(n)
    body = cells[:, 8:26]
    np.multiply(digits, _LEFT.take(mask, axis=0), out=body[:, :17])
    body[:, 17] = 0
    body[:, 1:] += digits * _RIGHT.take(mask, axis=0)
    body += _POINT.take(mask, axis=0)
    _tails(cells, rows, cols, np.where(sci, k + (_E + 2), whole & (k + 1 >= nd)), (2, 3, 4))
    return cells, fast


def _text(cells: np.ndarray, fast: np.ndarray, x: np.ndarray, slow, start: int, stop: int) -> bytes:
    """Put the builtin's text in slots start:stop where the block path is unsure, drop pads."""
    for i in np.flatnonzero(~fast):
        text = slow(float(x[i])).encode("ascii")
        cells[i, start:stop] = 0
        cells[i, start : start + len(text)] = np.frombuffer(text, np.uint8)
    return cells.tobytes().translate(None, b"\0")


def csv_rows(block: np.ndarray) -> bytes:
    """CSV lines of a (rows, cols) float64 block, ``\\n`` after each row."""
    x = block.ravel()
    return _text(*_csv_cells(x, *block.shape), x, lambda v: format(v, ".16e"), 0, 24)


def json_rows(block: np.ndarray) -> bytes:
    """JSON rows ``[a, b], [c, d]`` of a (rows, cols) float64 block, as repr writes them."""
    x = block.ravel()
    return _text(*_json_cells(x, *block.shape), x, json.dumps, 1, 31)
