"""Generated coefficients, profiles and time functions: JSON round trips are
byte-identical, and evaluation, derivatives, degree, bounds and scaling
match the per-kind formulas kept below as oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline

from beamstab import problem as pb

_VALUE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_X = np.linspace(0.0, 1.0, 41)   # the beam, L = 1


def _nodes(least):
    """Strictly increasing nodes on [0, 1], first 0 and last 1."""
    inner = st.lists(st.integers(1, 19), min_size=least - 2, max_size=6, unique=True)
    return inner.map(lambda k: (0.0, *(i / 20.0 for i in sorted(k)), 1.0))


@st.composite
def _table(draw, least):
    nodes = draw(_nodes(least))
    return nodes, tuple(draw(st.lists(_VALUE, min_size=len(nodes), max_size=len(nodes))))


_COEFFICIENTS = st.one_of(
    st.just(pb.CoefficientField.constant(0.0)),
    _VALUE.map(pb.CoefficientField.constant),
    st.lists(_VALUE, min_size=1, max_size=5).map(pb.CoefficientField.polynomial),
    _table(2).map(lambda t: pb.CoefficientField.table(*t)))

_PROFILES = st.one_of(
    st.lists(_VALUE, min_size=1, max_size=5).map(pb.SpatialProfile.polynomial),
    _table(4).map(lambda t: pb.SpatialProfile.table(*t)))

_TIME_FUNCTIONS = st.one_of(
    st.just(pb.TimeFunction.zero()),
    st.tuples(_VALUE, _VALUE).map(lambda ab: pb.TimeFunction.exponential(*ab)),
    _table(2).map(lambda t: pb.TimeFunction.table(*t)))


# ---------------------------------------------------------------------------
# the per-kind formulas, one branch per kind
# ---------------------------------------------------------------------------

def _oracle_value(coeff, x):
    if coeff.kind == "constant":
        return np.full_like(x, coeff.data[0], dtype=float)
    if coeff.kind == "polynomial":
        return npoly.polyval(x, coeff.data)
    return np.interp(x, *coeff.data)


def _oracle_degree(coeff):
    return {"constant": 0, "table": 1}.get(coeff.kind, max(len(coeff.data) - 1, 0))


def _oracle_bounds(coeff, length):
    if coeff.kind == "constant":
        return coeff.data[0], coeff.data[0]
    if coeff.kind == "polynomial":
        candidates = [0.0, length]
        deriv = npoly.polyder(coeff.data)
        if len(deriv) > 1 or (len(deriv) == 1 and deriv[0] != 0.0):
            candidates += [float(r.real) for r in npoly.polyroots(deriv)
                           if abs(r.imag) < 1e-12 and 0.0 <= r.real <= length]
        values = npoly.polyval(np.asarray(candidates), coeff.data)
        return float(np.min(values)), float(np.max(values))
    xs, ys = (np.asarray(a) for a in coeff.data)
    inside = (xs >= 0.0) & (xs <= length)
    candidates = list(ys[inside]) + [np.interp(0.0, xs, ys), np.interp(length, xs, ys)]
    return float(np.min(candidates)), float(np.max(candidates))


def _oracle_scaled(coeff, s):
    if coeff.kind == "constant":
        return pb.CoefficientField.constant(coeff.data[0] * s)
    if coeff.kind == "polynomial":
        return pb.CoefficientField.polynomial(tuple(c * s for c in coeff.data))
    xs, ys = coeff.data
    return pb.CoefficientField.table(xs, tuple(y * s for y in ys))


def _oracle_derivatives(profile, x):
    """The profile and its first two derivatives at x."""
    if profile.kind == "table":
        left = (1, 0.0) if profile.clamp_left else "not-a-knot"
        spline = CubicSpline(*profile.data, bc_type=(left, "not-a-knot"))
        return [spline(x, nu) for nu in range(3)]
    c, out = profile.data, []
    for _ in range(3):
        out.append(npoly.polyval(x, c))
        c = npoly.polyder(c)
    return out


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# Values are compared as numbers: a constant -0.0 now evaluates as the
# degree-0 polynomial, -0.0 + 0 x = +0.0, where the constant formula gave -0.0.

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_COEFFICIENTS, st.floats(0.0, 8.0))
def test_coefficients_match_the_per_kind_formulas(coeff, s):
    np.testing.assert_array_equal(coeff(_X), _oracle_value(coeff, _X))
    assert float(coeff(0.5)) == float(_oracle_value(coeff, np.asarray(0.5)))
    assert coeff.degree == _oracle_degree(coeff)
    assert pb.coefficient_bounds(coeff, 1.0) == _oracle_bounds(coeff, 1.0)
    scaled, oracle = coeff.scaled(s), _oracle_scaled(coeff, s)
    assert scaled == oracle
    assert scaled.to_dict() == oracle.to_dict()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_PROFILES, st.booleans())
def test_profiles_match_the_per_kind_formulas(profile, clamp_left):
    profile = dataclasses.replace(profile, clamp_left=clamp_left and profile.kind == "table")
    got = [profile(_X), profile.d1(_X), profile.d2(_X)]
    for value, oracle in zip(got, _oracle_derivatives(profile, _X)):
        np.testing.assert_array_equal(value, oracle)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS, _PROFILES, _PROFILES,
       _TIME_FUNCTIONS, _TIME_FUNCTIONS)
def test_generated_problems_round_trip_byte_for_byte(rho, mu, r, u0, u1, g_m, g_q):
    prob = dataclasses.replace(
        pb.preset("cantilever_dampers"), rho=rho, mu=mu, rigidity=r,
        forcing=pb.BoundaryForcing(g_M=g_m, g_Q=g_q),
        initial=pb.InitialData(u0=u0, u1=u1))
    text = pb.problem_to_json(prob)
    again = pb.problem_from_json(text)
    assert pb.problem_to_json(again) == text
    assert (again.rho, again.mu, again.rigidity, again.forcing) == (rho, mu, r, prob.forcing)


@pytest.mark.parametrize("make, what, var, least", [
    (pb.CoefficientField.table, "table", "x", 2),
    (pb.TimeFunction.table, "table", "t", 2),
    (pb.SpatialProfile.table, "profile table", "x", 4),
])
def test_table_constructors_keep_their_error_texts(make, what, var, least):
    nodes = tuple(np.linspace(0.0, 1.0, least))
    with pytest.raises(ValueError) as short:
        make(nodes[:-1], nodes[:-1])
    with pytest.raises(ValueError) as unmatched:
        make(nodes, nodes[:-1])
    with pytest.raises(ValueError) as unordered:
        make(nodes[::-1], nodes)
    assert str(short.value) == str(unmatched.value) == (
        f"{what} needs >= {least} matching ({var}, value) pairs")
    assert str(unordered.value) == f"{what} {var} nodes must be strictly increasing"
