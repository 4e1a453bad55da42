"""Decay constants, admissible windows, envelope verification."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import trapezoid

import beamstab as bs
from beamstab.problem import (
    BoundaryParams,
    CoefficientField,
    InitialData,
    SpatialProfile,
)
from beamstab.stepper import TimeGrid


def _mast_trace(nodes=41, ratio=40):
    prob = bs.preset("mast_constant")
    mesh = bs.Mesh(1.0, nodes)
    grid = TimeGrid.from_dt(prob.final_time, mesh.h / ratio)
    return prob, bs.run(prob, mesh, grid)


# ---------------------------------------------------------------------------
# comparison constants
# ---------------------------------------------------------------------------

def test_ne1_constants_are_exact_ieee():
    beta0, beta1 = bs.beta_constants(bs.preset("test_NE1"))
    assert beta0 == 0.5
    assert beta1 == 5.0


def test_no_damping_collapses_the_bracket():
    prob = dataclasses.replace(bs.preset("cantilever_free"),
                               mu=CoefficientField.constant(0.0))
    beta0, beta1 = bs.beta_constants(prob)
    assert beta0 == 0.5 and beta1 == 0.5


def test_cantilever_free_uses_tighter_variant():
    # direct substitution: beta1 = beta0 (1 + mu1 L^2 / (4 sqrt(rho1 r0)))
    beta0, beta1 = bs.beta_constants(bs.preset("cantilever_free"))
    assert beta0 == 0.5
    assert beta1 == 0.75


def test_general_variant_applies_with_dampers():
    # mu1 = 1, k_a = k_v = 1: beta1 = 0.5 (1 + 0.5 + 2 + 1) = 2.25
    beta0, beta1 = bs.beta_constants(bs.preset("cantilever_dampers"))
    assert beta0 == 0.5
    assert beta1 == 2.25


def test_beta1_equals_beta0_only_without_damping():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu1, ka, kv = rng.uniform(0.0, 3.0, 3) * (rng.random(3) > 0.3)
        prob = dataclasses.replace(
            bs.preset("cantilever_free"),
            mu=CoefficientField.constant(mu1),
            boundary=BoundaryParams(k_r=0.0, k_d=0.0, k_a=ka, k_v=kv))
        beta0, beta1 = bs.beta_constants(prob)
        if mu1 == 0.0 and ka == 0.0 and kv == 0.0:
            assert beta1 == beta0
        else:
            assert beta1 > beta0


# ---------------------------------------------------------------------------
# regimes and windows
# ---------------------------------------------------------------------------

def test_regime_classification():
    assert bs.classify_regime(bs.preset("test_NE1")) == "theorem1"
    assert bs.classify_regime(bs.preset("cantilever_dampers")) == "theorem1"
    assert bs.classify_regime(bs.preset("cantilever_free")) == "theorem1_special_4_1"
    assert bs.classify_regime(bs.preset("cantilever_spring")) == "theorem1_special_4_1"
    assert bs.classify_regime(bs.preset("mast_constant")) == "theorem2"


def test_undamped_has_no_regime():
    prob = dataclasses.replace(bs.preset("cantilever_free"),
                               mu=CoefficientField.constant(0.0))
    with pytest.raises(ValueError, match=r"k_a \+ k_v \+ mu0 > 0 fails"):
        bs.classify_regime(prob)


def test_damper_only_variable_coefficients_has_no_certificate():
    prob = dataclasses.replace(bs.preset("mast_constant"),
                               rigidity=CoefficientField.polynomial((1.0, 1.0)))
    with pytest.raises(ValueError, match="constant"):
        bs.classify_regime(prob)


def test_ne1_window():
    lam_max, regime = bs.lambda_window(bs.preset("test_NE1"))
    assert lam_max == 1.0
    assert regime == "theorem1"


def test_theorem2_needs_a_trace():
    with pytest.raises(ValueError) as exc:
        bs.lambda_window(bs.preset("mast_constant"))
    assert str(exc.value) == (
        "the damper-only (theorem2) window depends on the solution; "
        "take it from a computed energy trace (EnergyTrace.bound)")


@pytest.mark.parametrize("name", ["test_NE1", "cantilever_dampers", "cantilever_free"])
def test_theorem1_windows_ignore_the_run(name):
    prob = bs.preset(name)
    grid = TimeGrid.from_dt(1.0, 0.5)
    run = (grid, np.zeros(1), np.zeros(1), np.full(1, np.nan))
    assert bs.lambda_window(prob, run) == bs.lambda_window(prob)


@pytest.mark.parametrize("nodes, ratio", [(21, 20), (161, 5)])
@pytest.mark.parametrize("m", [3.0, 0.7])
def test_damper_only_window_is_the_papers_for_a_constant_density(m, nodes, ratio):
    # the paper's min_t(k_a^2 u_xt(L)^2 + k_v^2 u_t(L)^2) / (2 m sup_t ||u_t||^2),
    # with ||u_t||^2 from plain Gauss weights at five points per element (the
    # run's rule has four) and t = 0 from the analytic initial velocity
    prob = dataclasses.replace(bs.preset("mast_constant"), rho=CoefficientField.constant(m))
    mesh = bs.Mesh(1.0, nodes)
    trace = bs.run(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / ratio))
    window = bs.energy(trace).bound.lambda_max

    from beamstab.fem import FieldKernel, gauss_rule
    xi, w = gauss_rule(5)
    vel = (trace.dof_history[2:] - trace.dof_history[:-2]) / (2.0 * trace.grid.dt)
    norms = (FieldKernel(mesh.h, xi).values(vel) ** 2 @ (mesh.h * w)).sum(axis=1)
    u1, bc = prob.initial.u1, prob.boundary
    norm0 = float(np.sum(u1(mesh.nodes[:-1, None] + mesh.h * xi) ** 2 @ (mesh.h * w)))
    tip_v = np.concatenate([[float(u1(1.0))], vel[:, -2]])
    tip_a = np.concatenate([[float(u1.d1(1.0))], vel[:, -1]])
    paper = np.min(bc.k_a**2 * tip_a**2 + bc.k_v**2 * tip_v**2) \
        / (2.0 * m * max(norm0, np.max(norms)))
    beta0, _ = bs.beta_constants(prob)
    assert paper < 1.0 / beta0   # the run's term decides the window
    assert window == pytest.approx(paper, rel=1e-14, abs=0.0)


def test_theorem2_window_is_reproducible_and_matches_recompute():
    prob, trace = _mast_trace(21, 20)
    lam1 = bs.energy(trace).bound.lambda_max
    lam2 = bs.energy(trace, mode="basis").bound.lambda_max
    regime = bs.classify_regime(prob)
    assert regime == "theorem2"
    assert lam1 == lam2  # bit-exact across calls

    # independent recomputation from the exported history: ||u_t||^2 by the
    # trapezoid rule on 200 uniform points per element, not the Gauss weights
    from beamstab.fem import FieldKernel
    hist = trace.dof_history
    dt = trace.grid.dt
    n = hist.shape[1]
    vel = (hist[2:] - hist[:-2]) / (2.0 * dt)
    bc = prob.boundary
    u1 = prob.initial.u1
    tip_v = np.concatenate([[float(u1(1.0))], vel[:, n - 2]])
    tip_a = np.concatenate([[float(u1.d1(1.0))], vel[:, n - 1]])
    num = np.min(bc.k_a**2 * tip_a**2 + bc.k_v**2 * tip_v**2)
    xi = np.linspace(0.0, 1.0, 200)
    h = trace.system.mesh.h
    values = FieldKernel(h, xi).values(vel[:: max(1, len(vel) // 60)])
    norms = trapezoid(values**2, dx=h * xi[1], axis=2).sum(axis=1)
    xs = np.linspace(0.0, 1.0, 4001)
    norm0 = trapezoid(u1(xs) ** 2, xs)
    sup = max(max(norms), norm0)
    beta0, _ = bs.beta_constants(prob)
    lam_oracle = min(1.0 / beta0, num / (2.0 * 1.0 * sup))
    assert lam1 == pytest.approx(lam_oracle, rel=2e-2)  # subsampled sup
    assert lam1 > 0.0


def _dead_tip_trace():
    """mast_constant started with its tip at rest: no damper-only window."""
    prob = dataclasses.replace(
        bs.preset("mast_constant"),
        initial=InitialData(
            u0=bs.preset("mast_constant").initial.u0,
            u1=SpatialProfile.polynomial((0.0,))))
    mesh = bs.Mesh(1.0, 11)
    return prob, bs.run(prob, mesh, TimeGrid.from_dt(2.0, 1 / 100))


def test_damper_only_window_reads_level_zero():
    # the run's columns start at t_0 = grid.times[0]: a kinetic integral
    # that peaks only there sets the window, and a tip at rest only there
    # fails it at t = 0
    prob = bs.preset("mast_constant")
    bc = prob.boundary
    grid = TimeGrid.from_dt(1.0, 0.25)   # levels t_0..t_4, columns t_0..t_3
    tip = np.array([1.0, 0.5, 0.25, 0.5])
    kinetic = np.array([2.0, 0.1, 0.1, 0.1])
    lam_max, regime = bs.lambda_window(prob, (grid, tip, tip, kinetic))
    assert regime == "theorem2"
    assert lam_max == np.min(bc.k_a**2 * tip**2 + bc.k_v**2 * tip**2) / (2.0 * 2.0)
    assert lam_max < 1.0 / bs.beta_constants(prob)[0]   # the run's term decides
    tip[0] = 0.0
    with pytest.raises(ValueError, match="fails at t = 0$"):
        bs.lambda_window(prob, (grid, tip, tip, kinetic))


def test_theorem2_condition_violated_at_rest_start():
    _, trace = _dead_tip_trace()
    e = bs.energy(trace)
    assert e.bound is None and "fails at t = 0" in e.window_error
    with pytest.raises(ValueError, match="t = 0"):
        bs.energy(trace, lam=0.01)


# ---------------------------------------------------------------------------
# decay estimates
# ---------------------------------------------------------------------------

def test_limits_at_the_right_edge_of_the_window():
    m_d, sigma = bs.decay_estimate(0.5, 5.0, 1.0 - 1e-8)
    assert m_d == pytest.approx(12.0, rel=1e-6)
    assert sigma == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_half_window_values_by_substitution():
    m_d, sigma = bs.decay_estimate(0.5, 5.0, 0.5)
    assert m_d == pytest.approx(14.0 / 3.0, rel=1e-15)
    assert sigma == pytest.approx(2.0 / 7.0, rel=1e-15)


def test_small_penalty_limits():
    m_d, sigma = bs.decay_estimate(0.5, 5.0, 1e-12)
    assert m_d == pytest.approx(1.0, abs=1e-10)
    assert sigma == pytest.approx(0.0, abs=1e-11)


def test_penalty_outside_window_rejected():
    with pytest.raises(ValueError):
        bs.decay_estimate(0.5, 5.0, 2.0)
    with pytest.raises(ValueError):
        bs.decay_estimate(0.5, 5.0, 0.0)


def test_overshoot_scale_consistency_is_exact():
    # doubling both constants while halving the weight keeps the products
    # beta * lam, so the overshoot is identical in IEEE arithmetic; the rate
    # 2 lam / (1 + beta1 lam) carries the bare lam and halves with it
    m_a, s_a = bs.decay_estimate(0.5, 5.0, 0.625)
    m_b, s_b = bs.decay_estimate(1.0, 10.0, 0.3125)
    assert m_a == m_b
    assert s_b == s_a / 2.0


def test_sigma_stays_below_its_asymptote():
    rng = np.random.default_rng(2)
    for _ in range(50):
        beta0 = rng.uniform(0.1, 2.0)
        beta1 = beta0 * (1.0 + rng.uniform(0.0, 5.0))
        lam = rng.uniform(1e-6, 1.0) / beta0 * 0.999
        _, sigma = bs.decay_estimate(beta0, beta1, lam)
        assert sigma < 2.0 / beta1


def test_scan_is_monotone_and_consistent():
    rows = bs.scan_lambda(0.5, 5.0, 1.0, 9)
    lams = [r[0] for r in rows]
    m_ds = [r[1] for r in rows]
    sigmas = [r[2] for r in rows]
    assert all(b > a for a, b in zip(sigmas, sigmas[1:]))
    assert all(b > a for a, b in zip(m_ds, m_ds[1:]))
    # the middle row of a 3-point scan is the half-window estimate
    lam, m_d, sigma = bs.scan_lambda(0.5, 5.0, 1.0, 3)[1]
    assert (lam, m_d, sigma) == (0.5, *bs.decay_estimate(0.5, 5.0, 0.5))
    with pytest.raises(ValueError):
        bs.scan_lambda(0.5, 5.0, 1.0, 1)


def test_default_penalty_is_99_percent_of_window():
    bound = bs.compute_decay_bound(bs.preset("test_NE1"))
    assert bound.lam == pytest.approx(0.99)
    assert bound.lambda_max == 1.0
    assert bound.regime == "theorem1"
    assert 1.0 < bound.M_d < 12.0
    assert 0.0 < bound.sigma < 1.0 / 3.0


# ---------------------------------------------------------------------------
# envelope verification
# ---------------------------------------------------------------------------

def _ne1_energy(nodes=21, ratio=20, mode="paper"):
    prob = bs.preset("test_NE1")
    mesh = bs.Mesh(1.0, nodes)
    grid = TimeGrid.from_dt(1.5, mesh.h / ratio)
    return prob, bs.energy(bs.run(prob, mesh, grid), mode=mode)


def test_ne1_envelopes_hold_with_zero_violations():
    _, e = _ne1_energy()
    report = bs.verify_envelopes(e, e.bound)
    assert report.ok
    assert report.informational  # forced run
    assert report.first_violation_time is None
    assert report.worst_margin_upper > 0.0
    assert report.worst_margin_lower > 0.0
    assert report.worst_margin_decay > 0.0


def test_reference_inequality_chain():
    # J = 6.8 e^{-4t} <= beta1 E = 87 e^{-4t}; E <= M_d e^{-sigma t} E(0)
    _, e = _ne1_energy()
    assert np.all(e.J <= 5.0 * e.E)
    assert np.all(e.J >= -0.5 * e.E)
    assert np.all(e.E <= 12.0 * np.exp(-e.times / 3.0) * 17.4)


def test_violations_are_report_content_not_errors():
    _, e = _ne1_energy(nodes=9, ratio=10)
    bogus = bs.DecayBound(beta0=0.5, beta1=5.0, lambda_max=1.0, lam=0.99,
                          M_d=1.0, sigma=10.0, regime="theorem1")
    report = bs.verify_envelopes(e, bogus)
    assert not report.ok
    assert report.violations_decay > 0
    assert report.first_violation_time is not None


def test_rest_state_envelopes_are_trivial():
    prob = dataclasses.replace(
        bs.preset("cantilever_dampers"),
        initial=InitialData(u0=SpatialProfile.polynomial((0.0,)),
                            u1=SpatialProfile.polynomial((0.0,))))
    trace = bs.run(prob, bs.Mesh(1.0, 9), TimeGrid(2.0, 101))
    e = bs.energy(trace, mode="basis")
    assert bs.verify_envelopes(e, e.bound).ok


def test_mast_envelope_verifies():
    _, trace = _mast_trace(21, 20)
    e = bs.energy(trace, mode="basis")
    assert e.bound.regime == "theorem2"
    report = bs.verify_envelopes(e, e.bound)
    assert report.ok and not report.informational


@pytest.mark.parametrize("name", ["cantilever_free", "cantilever_spring",
                                  "cantilever_dampers", "mast_constant"])
def test_every_damped_preset_envelope_verifies_at_acceptance_resolution(name):
    prob = bs.preset(name)
    mesh = bs.Mesh(prob.length, 41)
    grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40.0)
    trace = bs.run(prob, mesh, grid)
    e = bs.energy(trace, mode="basis")
    report = bs.verify_envelopes(e, e.bound)
    assert report.ok and not report.informational


REPORT_KEYS = {"beta0", "beta1", "lambda_max", "lambda", "M_d", "sigma", "regime",
               "scan", "envelope"}


def test_bound_report_schema():
    prob, e = _ne1_energy(nodes=9, ratio=10)
    report = bs.bound_report(prob, e)
    assert set(report) == REPORT_KEYS
    assert report["lambda"] == e.bound.lam and report["M_d"] == e.bound.M_d
    assert len(report["scan"]) == 9
    assert report["envelope"]["violations"] == {"upper": 0, "lower": 0, "decay": 0}
    sigmas = [row["sigma"] for row in report["scan"]]
    assert sigmas == sorted(sigmas)
    # the theorem-1 window needs no run: the same certificate, no envelope
    no_run = bs.bound_report(prob)
    assert no_run == {**report, "envelope": None}
    # a run without a certificate: the same keys, null where the
    # certificate's entries go, and a note saying why
    prob, trace = _dead_tip_trace()
    e = bs.energy(trace)
    report = bs.bound_report(prob, e)
    assert set(report) == REPORT_KEYS | {"note"}
    assert (report["beta0"], report["beta1"]) == bs.beta_constants(prob)
    assert all(report[key] is None for key in
               ("lambda_max", "lambda", "M_d", "sigma", "regime", "envelope"))
    assert report["scan"] == []
    assert report["note"] == e.window_error and "fails at t = 0" in report["note"]
