"""The ``'%.17g'`` text of float64 arrays, built with numpy array operations.

``fields(x)`` returns one row of WIDTH bytes per value: exactly the bytes
``b"%.17g" % v`` gives, with NUL bytes as padding in fixed places of the
row.  A CSV writer lays the rows out between its separators as one uint8
matrix, and ``text`` turns it into bytes without the NULs, with one
``bytes.translate`` (0.35 ms on a 198 KB block, where a boolean mask took
0.49 ms and ``bytes.replace`` 1.2 ms).

The 17 significant digits of |v| come from its decimal exponent guess
``k = floor(log10 |v|)``: ``D = round(|v| 10^(16-k))``, the power stored
as a double-double ``hi + lo`` (exact to about 1e-32), ``|v| hi`` formed
exactly as ``p + err`` (Dekker's two-product) and the rest of the product
added to ``err``, so ``D`` is the integer ``p`` plus the rounded small part
``err + |v| lo``, whose error is below 1e-14.  A value takes this path only
when that is certain: its fraction lies more than 1e-6 from 1/2 (ties and
near-ties round half-even in ``%``), ``p + floor(err + |v| lo)`` is at
least 1e16 and D below 1e17, which catches a guess of k that log10 got
wrong and a rounding that carries into the next decade.  Zeros, nan,
infinities, values outside [1e-283, 1e290) and uncertified values are
formatted one by one with ``b"%.17g" % v``.

From D and the exponent X, ``%g`` writes the digits in fixed notation when
-4 <= X < 17 (``0.000ddd``, ``ddd.ddd`` or ``ddd``) and in scientific
notation otherwise (``d.ddde+XX``), in both cases without trailing zeros
after the point, nor the point when no digit follows it.  A row holds the
sign in byte 0, the ``0.000`` prefix of negative fixed exponents in bytes
1-5, the digits and the point in bytes 8-25 and the exponent in bytes
26-30.  The 17 digits, one uint8 column each, are laid down twice: digit j
at byte 8 + j and at byte 9 + j.  Per-row masks looked up by (point
position, last digit shown) keep the digits up to the point from the first
copy and those after it from the second, and put the point between them.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 32          # "-0.000", 2 NUL, 17 digits and a point, "e-284", 1 NUL
# the numbers a writer passes to one fields() call, at most (the trace
# writer passes one whole level when a level holds more): about 2k keeps
# every array of the call below 128 KiB, where glibc's malloc turns to mmap
CHUNK = 2048
_LOW, _HIGH = 1e-283, 1e290   # |v| in [_LOW, _HIGH): a guessed k in [_KMIN, _KMAX]
_KMIN, _KMAX = -284, 290      # 10^(16-k) and its split stay finite and normal
_SPLIT = 134217729.0          # 2^27 + 1, Dekker's splitter for doubles
_E16, _E17 = 10**16, 10**17


def _split(v: float) -> tuple[float, float]:
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Built on first use, not at import: the four-digit ASCII groups, the
    double-double powers of ten per k, the row's head and tail bytes and
    the point's place per exponent X, and the masks that keep or move the
    digits."""
    n = np.arange(10000)
    quads = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
             + ord("0")).astype(np.uint8)
    powers = []
    for k in range(_KMIN, _KMAX + 1):
        m = 16 - k
        num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
        hi = num / den                                  # correctly rounded
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)            # num/den - hi, rounded
        powers.append((hi, *_split(hi), lo))
    # per X in [_KMIN, _KMAX]: bytes 0-7 of the row (the "0." prefix of
    # -4 <= X < 0 in bytes 1-5), bytes 25-31 (the exponent in bytes 26-30),
    # the digit the point follows (17: none among the digits) and the
    # last digit shown whatever its value
    exps = range(_KMIN, _KMAX + 1)
    head, tail = np.zeros((len(exps), 8), np.uint8), np.zeros((len(exps), 7), np.uint8)
    point, whole = np.zeros(len(exps), np.intp), np.zeros(len(exps), np.intp)
    for i, x in enumerate(exps):
        if -4 <= x < 0:
            head[i, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            point[i] = 17
        elif 0 <= x < 17:
            point[i] = whole[i] = x
        else:
            exponent = b"e%+03d" % x
            tail[i, 1:1 + len(exponent)] = np.frombuffer(exponent, np.uint8)
    # per (point, v), v the last digit shown, over digits j = 0..16: those
    # kept at byte 8 + j (up to the point), those moved to byte 9 + j (after
    # it), and the point at byte 9 + point when a digit follows it
    j = np.arange(17)
    at, v = (i[..., None] for i in np.meshgrid(np.arange(18), np.arange(17), indexing="ij"))
    keep, moved, dots = (np.where(m, fill, 0).astype(np.uint8).reshape(-1, 17)
                         for m, fill in ((j <= np.minimum(at, v), 255),
                                         ((j > at) & (j <= v), 255),
                                         ((j == at) & (v > at), ord("."))))
    return dict(quads=quads.view(np.uint32).ravel(), powers=np.array(powers), head=head,
                tail=tail, point=point, whole=whole, keep=keep, moved=moved, dots=dots)


def fields(values: np.ndarray) -> np.ndarray:
    """``(len(values), WIDTH)`` uint8 rows, row i the bytes of
    ``b"%.17g" % values[i]`` padded with NUL bytes; values is 1-D float64."""
    t = _tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _LOW) & (a < _HIGH)       # False for 0, nan, inf
    np.copyto(a, 1.0, where=~fast)
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= _KMIN                             # the row of k, and of X = k, in the tables
    hi, hi_high, hi_low, lo = t["powers"].take(k, axis=0).T
    p = a * hi
    c = _SPLIT * a
    a_high = c - (c - a)
    a_low = a - a_high
    err = a_high * hi_high - p
    err += a_high * hi_low
    err += a_low * hi_high
    err += a_low * hi_low
    err += a * lo                          # the rest of |v| 10^(16-k)
    units = np.floor(err)
    err -= units                           # the fraction, in [0, 1)
    digits = p.astype(np.int64)
    digits += units.astype(np.int64)
    fast &= (digits >= _E16) & (np.abs(err - 0.5) > 1e-6)
    digits += err > 0.5
    fast &= digits < _E17

    lead = digits // _E16
    digits -= lead * _E16
    groups = np.empty((len(x), 4), np.int64)   # four groups of four digits
    for i, scale in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(digits, scale, out=groups[:, i])
        digits -= groups[:, i] * scale
    groups[:, 3] = digits
    shown = np.empty((len(x), 17), np.uint8)   # the 17 digits as ASCII
    shown[:, 0] = lead + ord("0")
    shown[:, 1:] = t["quads"].take(groups).view(np.uint8)
    last = 16 - np.argmax(shown[:, ::-1] != ord("0"), axis=1)   # the last nonzero digit
    point, whole = t["point"].take(k), t["whole"].take(k)
    case = point * 17 + np.maximum(last, whole)
    out = np.empty((len(x), WIDTH), np.uint8)
    out[:, :8] = t["head"].take(k, axis=0)
    np.multiply(x < 0, ord("-"), out=out[:, 0], casting="unsafe")
    np.bitwise_and(shown, t["keep"].take(case, axis=0), out=out[:, 8:25])
    out[:, 25:] = t["tail"].take(k, axis=0)
    out[:, 9:26] |= shown & t["moved"].take(case, axis=0)
    out[:, 9:26] |= t["dots"].take(case, axis=0)

    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join([(b"%.17g" % v).ljust(WIDTH, b"\0") for v in x[slow].tolist()])
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
    return out


def text(lines: np.ndarray) -> bytes:
    """The bytes of uint8 lines laid out from ``fields`` rows and separators,
    without the rows' NUL padding."""
    return lines.tobytes().translate(None, b"\0")
