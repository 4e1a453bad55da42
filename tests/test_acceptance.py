"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The reference problem has the exact solution
u = x^2 exp(-2t), energy E(t) = 17.4 exp(-4t), auxiliary functional
J(t) = 6.8 exp(-4t), comparison constants beta0 = 1/2, beta1 = 5 and
admissible window (0, 1).
"""

import time

import numpy as np
import pytest
from oracles import (element_matrices, gauss_element_matrices, hand_recurrence, scalar_system,
                     step_levels)

import beamstab as bs
from beamstab.stepper import TimeGrid, TimeStepper

DAMPED_PRESETS = ("cantilever_free", "cantilever_spring",
                  "cantilever_dampers", "mast_constant")


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def ne1_run():
    prob = bs.preset("test_NE1")
    mesh = bs.Mesh(1.0, 41)
    grid = TimeGrid.from_dt(1.5, mesh.h / 40.0)
    start = time.perf_counter()
    trace = bs.run(prob, mesh, grid)
    energy = bs.energy(trace)
    elapsed = time.perf_counter() - start
    return prob, trace, energy, elapsed


@pytest.fixture(scope="module")
def preset_energies():
    out = {}
    for name in DAMPED_PRESETS:
        prob = bs.preset(name)
        mesh = bs.Mesh(prob.length, 41)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40.0)
        trace = bs.run(prob, mesh, grid)
        out[name] = (prob, trace, bs.energy(trace))
    return out


def test_criterion_1_ne1_energy_reproduction(ne1_run):
    _, _, energy, elapsed = ne1_run
    sel = energy.times >= 0.05
    ref_e = 17.4 * np.exp(-4.0 * energy.times[sel])
    ref_j = 6.8 * np.exp(-4.0 * energy.times[sel])
    err_e = float(np.max(np.abs(energy.E[sel] / ref_e - 1.0)))
    err_j = float(np.max(np.abs(energy.J[sel] / ref_j - 1.0)))
    ok = err_e <= 0.01 and err_j <= 0.01 and elapsed < 10.0
    _report(1, ok, f"max rel err E {err_e:.2e}, J {err_j:.2e}, runtime {elapsed:.2f} s")


def test_criterion_2_bound_constants():
    beta0, beta1 = bs.beta_constants(bs.preset("test_NE1"))
    exact = beta0 == 0.5 and beta1 == 5.0
    m_d, sigma = bs.decay_estimate(beta0, beta1, 1.0 - 1e-8)
    lim_ok = abs(m_d - 12.0) / 12.0 <= 1e-6 and abs(sigma - 1.0 / 3.0) / (1.0 / 3.0) <= 1e-6
    _report(2, exact and lim_ok,
            f"beta0 {beta0}, beta1 {beta1}, M_d(1-) {m_d:.8f}, sigma(1-) {sigma:.8f}")


def test_criterion_3_envelope_verification(ne1_run):
    _, _, energy, _ = ne1_run
    bound = energy.bound
    report = bs.verify_envelopes(energy, bound)
    ok = report.ok
    _report(3, ok,
            f"violations upper/lower/decay = {report.violations_upper}/"
            f"{report.violations_lower}/{report.violations_decay}, "
            f"worst margins {report.worst_margin_upper:.3g}/"
            f"{report.worst_margin_lower:.3g}/{report.worst_margin_decay:.3g}")


def test_criterion_4_energy_identity_refinement():
    prob = bs.preset("cantilever_spring")
    residuals = []
    e0 = None
    for level in range(4):
        nodes = 10 * 2**level + 1
        mesh = bs.Mesh(prob.length, nodes)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40.0)
        energy = bs.energy(bs.run(prob, mesh, grid))
        residuals.append(bs.identity_residual(energy))
        e0 = energy.E0
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(3)]
    ok = all(o >= 1.8 for o in orders) and residuals[-1] <= 1e-4 * e0
    _report(4, ok, "orders " + "/".join(f"{o:.2f}" for o in orders)
            + f", finest residual {residuals[-1] / e0:.2e} E(0)")


def test_criterion_5_dissipativity(preset_energies):
    details = []
    ok = True
    for name, (_, _, energy) in preset_energies.items():
        worst_rise = float(np.max(np.diff(energy.E))) / energy.E0
        monotone_j = all(np.all(np.diff(arr) >= 0.0)
                         for arr in (energy.j_mu, energy.j_a, energy.j_v))
        ok = ok and worst_rise <= 1e-6 and monotone_j
        details.append(f"{name} rise {worst_rise:+.1e}")
    _report(5, ok, "; ".join(details))


def test_criterion_6_temporal_and_spatial_convergence():
    prob = bs.preset("test_NE1")
    exact = bs.exact_solution("test_NE1")

    def max_error(mesh, grid):
        trace = bs.run(prob, mesh, grid)
        hist = trace.dof_history
        u = np.concatenate([np.zeros((hist.shape[0], 1)), hist[:, 0::2]], axis=1)
        return float(np.max(np.abs(
            u - exact.u(mesh.nodes[None, :], grid.times[:, None]))))

    mesh = bs.Mesh(1.0, 11)
    errors = [max_error(mesh, TimeGrid.from_dt(1.5, dt))
              for dt in (1 / 100, 1 / 200, 1 / 400)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    temporal_ok = all(1.8 <= o <= 2.2 for o in orders)

    grid = TimeGrid.from_dt(1.5, 1 / 2000)
    spatial = [max_error(bs.Mesh(1.0, nodes), grid) for nodes in (6, 11, 21)]
    spatial_ok = max(spatial) / min(spatial) < 1.5

    _report(6, temporal_ok and spatial_ok,
            "temporal orders " + "/".join(f"{o:.2f}" for o in orders)
            + f", spatial spread x{max(spatial) / min(spatial):.3f}")


def test_criterion_7_oracle_equivalence():
    # element integrals against a 50-point Gauss oracle with independent
    # shape-polynomial definitions
    import dataclasses

    from beamstab.problem import CoefficientField

    mass_oracle, stiff_oracle = gauss_element_matrices(1.0, np.ones_like, np.ones_like)
    unit = dataclasses.replace(bs.preset("cantilever_free"),
                               mu=CoefficientField.constant(0.0))
    m_e, _, k_e = element_matrices(unit, 0.0, 1.0)
    mass_err = np.max(np.abs(m_e - mass_oracle)) / np.max(np.abs(mass_oracle))
    stiff_err = np.max(np.abs(k_e - stiff_oracle)) / np.max(np.abs(stiff_oracle))

    # scalar three-level recurrence solved by hand
    m, c, k, dt = 2.0, 0.3, 1.7, 0.05
    stepper = TimeStepper(scalar_system(m, c, k), TimeGrid.from_dt(1.0, dt))
    start = [1.0, 0.9, 0.85]
    hand = hand_recurrence(m, c, k, dt, start, 15)
    mine = step_levels(stepper, [np.array([v]) for v in start], 15)
    worst = max(abs(a - b[0]) for a, b in zip(hand, mine, strict=True))

    ok = mass_err <= 1e-12 and stiff_err <= 1e-12 and worst <= 1e-12
    _report(7, ok, f"element err {max(mass_err, stiff_err):.2e}, "
                   f"scalar recurrence err {worst:.2e}")


def test_criterion_8_theorem2_pipeline(preset_energies):
    prob, _, energy = preset_energies["mast_constant"]
    # the certificate of the run, None had its tip-motion check failed
    bound, regime = energy.bound, bs.classify_regime(prob)
    assert bound is not None, energy.window_error
    lam_max = bound.lambda_max
    report = bs.verify_envelopes(energy, bound)
    ok = regime == "theorem2" and lam_max > 0.0 and report.ok \
        and not report.informational
    _report(8, ok, f"lambda_max {lam_max:.4g}, M_d {bound.M_d:.4g}, "
                   f"sigma {bound.sigma:.4g}, decay violations "
                   f"{report.violations_decay}")
