"""The vectorized ``%.17g`` kernel of the CSV writers against ``b"%.17g" % v``."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from beamstab import _g17


def _reference(values):
    return b"".join(b"%.17g\n" % v for v in values.tolist())


def _kernel(values):
    rows = _g17.fields(values)
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0")


def _assert_exact(values):
    expected, got = _reference(values), _kernel(values)
    if got != expected:
        bad = [(v, e, g) for v, e, g in zip(values.tolist(), expected.split(b"\n"),
                                             got.split(b"\n")) if e != g]
        pytest.fail(f"{len(bad)} of {len(values)} values differ, e.g. {bad[:5]}")


def _powers_of_ten():
    return np.array([float(f"1e{k}") for k in range(-323, 309)])


def _ties():
    # (2N+1) 2^-(17-k) in [10^k, 10^(k+1)) has 18 significant digits, the
    # last a 5: exactly halfway between two 17-digit decimals.  They exist
    # for k in -8..15 (below, no odd multiple falls in the decade; above,
    # 2N+1 passes 2^53)
    rng = np.random.default_rng(17)
    ties = []
    for k in range(-8, 16):
        low, high = (math.ceil((Fraction(10) ** e * 2 ** (17 - k) - 1) / 2) for e in (k, k + 1))
        odd = 2 * rng.integers(low, min(high, 2**52), 2000) + 1
        ties.append(odd.astype(np.float64) * 2.0 ** (k - 17))
    return np.concatenate(ties)


def test_ties_are_exact_halves():
    ties = _ties()
    assert len(ties) > 40000
    digits = [b"%.17e" % v for v in ties[::50].tolist()]   # 18 significant digits
    assert all(d.split(b"e")[0].endswith(b"5") for d in digits)
    assert b"%.17g" % 1.00000762939453125 == b"1.0000076293945312"   # half-even


SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1e-283, 1e290,
                     1e16, 1e17, 123456789012345678.0, 0.1, 1e-4, 9.9999999999999995e-5,
                     1e-5, 1.0000000000000002, 0.5, 100.0, 1234.5, -10.0])


def test_fields_match_the_percent_operator():
    rng = np.random.default_rng(20231)
    with np.errstate(over="ignore"):               # above 1.8e308: inf, dropped
        random = rng.uniform(1.0, 10.0, 700_000) * 10.0 ** rng.integers(-320, 309, 700_000)
    random[::2] *= -1.0
    powers = _powers_of_ten()
    # the doubles nearest some powers of ten lie below them by less than
    # half a unit of the 17th digit: their rounding carries into the next
    # decade ("1e-14", "1e+98")
    carries = [v for k, v in zip(range(-323, 309), powers.tolist())
               if Fraction(v) < Fraction(10) ** k and b"%.17g" % v == b"1e%+03d" % k]
    assert len(carries) == 14
    ties = _ties()
    values = np.concatenate([
        random[np.isfinite(random)],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), -ties,
        SPECIALS,
        rng.standard_normal(100_000),                 # the trace's fixed notation
        rng.standard_normal(50_000) * 1e-6,           # and its small exponents
    ])
    assert len(values) >= 1_000_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")               # no RuntimeWarning for 0, nan, inf
        _assert_exact(values)


@pytest.mark.parametrize("size", [0, 1, 7, _g17.CHUNK - 1, _g17.CHUNK, _g17.CHUNK + 1,
                                  3 * _g17.CHUNK + 5])
def test_fields_of_any_length(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    values[: min(size, len(SPECIALS))] = SPECIALS[: min(size, len(SPECIALS))]
    assert _g17.fields(values).shape == (size, _g17.WIDTH)
    _assert_exact(values)


@pytest.mark.parametrize("error", [-1e-9, 1e-9])
def test_a_misjudged_decimal_exponent_falls_back(monkeypatch, error):
    # a log10 that errs next to the powers of ten guesses k one too low or
    # too high there; the range checks on the 17-digit integer catch both
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    powers = _powers_of_ten()[1:-1]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             powers * (1.0 + 1e-12), powers * (1.0 - 1e-12)])
    _assert_exact(values)
