"""Changes of unit: a run and its certificate in other units of time and mass.

In a time unit ``s`` times the original one, rho -> s^2 rho, mu -> s mu,
k_a, k_v -> s k, u_1 -> u_1 / s and T -> s T; in a mass unit ``c`` times the
original one, rho, mu, r and all four k scale by c.  An end load
``g = a e^{bt}`` becomes ``c a e^{(b/s) t}``.  Either leaves the equations of
motion, and with the same number of time levels the BDF2 recurrence,
unchanged.  With powers of 2 every
rescaled product is exact, so the DOF history must be bitwise the same, E
must scale by exactly c, J by c s, and the certificate's comparison
constants and penalty window must transform as a time and an inverse time.
"""

import dataclasses

import numpy as np
import pytest

import beamstab as bs
from beamstab.problem import BoundaryForcing, BoundaryParams, SpatialProfile, TimeFunction
from beamstab.stepper import TimeGrid

# the homogeneous presets and test_NE1, whose ends are loaded
PRESETS = ("cantilever_free", "cantilever_spring", "cantilever_dampers", "mast_constant",
           "test_NE1")
UNITS = [(0.25, 1.0), (4.0, 1.0), (16.0, 1.0), (1.0, 0.25), (1.0, 4.0)]   # (s, c)
NODES, LEVELS = 21, 1601   # dt = h/40 on the presets' T = 2


def _rescaled(prob, s, c):
    """``prob`` in a time unit ``s`` times and a mass unit ``c`` times its own."""
    bc, u1 = prob.boundary, prob.initial.u1

    def load(g):
        if g.kind == "zero":
            return g
        a, b = g.data
        return TimeFunction.exponential(c * a, b / s)

    return dataclasses.replace(
        prob,
        final_time=s * prob.final_time,
        rho=prob.rho.scaled(c * s * s),
        mu=prob.mu.scaled(c * s),
        rigidity=prob.rigidity.scaled(c),
        boundary=BoundaryParams(k_r=c * bc.k_r, k_d=c * bc.k_d,
                                k_a=c * s * bc.k_a, k_v=c * s * bc.k_v),
        forcing=BoundaryForcing(load(prob.forcing.g_M), load(prob.forcing.g_Q)),
        initial=dataclasses.replace(
            prob.initial, u1=SpatialProfile.polynomial([a / s for a in u1.data])))


def _energy(prob):
    trace = bs.run(prob, bs.Mesh(prob.length, NODES), TimeGrid(prob.final_time, LEVELS))
    return trace.dof_history, bs.energy(trace)


@pytest.mark.parametrize("kind", ["dense", "banded"])
@pytest.mark.parametrize("s, c", UNITS)
@pytest.mark.parametrize("name", PRESETS)
def test_a_change_of_units_leaves_the_run_unchanged(name, s, c, kind, kernels):
    kernels(kind)
    prob = bs.preset(name)
    hist, e = _energy(prob)
    hist_u, e_u = _energy(_rescaled(prob, s, c))
    assert hist_u.tobytes() == hist.tobytes()
    np.testing.assert_array_equal(e_u.times, s * e.times)
    for field, scale in (("E", c), ("J", c * s), ("j_mu", c), ("j_a", c), ("j_v", c),
                         ("residual", c)):
        np.testing.assert_array_equal(getattr(e_u, field), scale * getattr(e, field),
                                      err_msg=field)
    assert e_u.E0 == c * e.E0

    b, b_u = e.bound, e_u.bound
    assert (b_u.beta0, b_u.beta1) == (s * b.beta0, s * b.beta1)
    if b.regime != "theorem2":   # the damper-only window: see the test below
        assert b_u.regime == b.regime
        assert (b_u.lambda_max, b_u.lam, b_u.sigma) == (b.lambda_max / s, b.lam / s,
                                                        b.sigma / s)
        assert b_u.M_d == b.M_d
        np.testing.assert_array_equal(e_u.L, c * e.L)   # E + lam J


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 2: the damper-only window min_t(k_a^2 u_xt(L)^2 "
    "+ k_v^2 u_t(L)^2) / (2 m sup_t ||u_t||^2) is not unit-covariant; it is "
    "unchanged by a change of time unit and scales with the mass unit"))
@pytest.mark.parametrize("s, c", [(0.25, 1.0), (4.0, 1.0), (1.0, 4.0)])
def test_the_damper_only_window_transforms_as_an_inverse_time(s, c):
    prob = bs.preset("mast_constant")
    _, e = _energy(prob)
    _, e_u = _energy(_rescaled(prob, s, c))
    assert e.bound.regime == e_u.bound.regime == "theorem2"
    assert e_u.bound.lambda_max == pytest.approx(e.bound.lambda_max / s, rel=1e-12)
