"""Energy traces, comparison constants and exponential decay envelopes.

Along a computed motion the package evaluates the total energy

    E = 1/2 int(rho u_t^2 + r u_xx^2) + 1/2 k_r u_x(L)^2 + 1/2 k_d u(L)^2

the auxiliary functional J (displacement-velocity cross term plus the
damper-weighted squares) and the cumulative dissipation integrals j_mu,
j_a, j_v.  The explicit constants

    beta0 = L^2/2 sqrt(rho1/r0)       -beta0 E <= J <= beta1 E
    M_d   = (1 + beta1 lam)/(1 - beta0 lam)
    sigma = 2 lam / (1 + beta1 lam)

then certify E(t) <= M_d exp(-sigma t) E(0) for any admissible penalty
weight lam, and the certificate is checked against the trace.
"""

import os

import numpy as np

import beamstab as bs

prob = bs.preset("test_NE1")
mesh = bs.Mesh(prob.length, 41)
grid = bs.TimeGrid.from_dt(prob.final_time, mesh.h / 40.0)
trace = bs.run(prob, mesh, grid)

energy = bs.energy(trace)
print(f"E(0) = {energy.E0:g} (the reference value is 17.4)")
for t_probe in (0.25, 0.75, 1.25):
    j = int(np.argmin(np.abs(energy.times - t_probe)))
    print(f"  t = {energy.times[j]:.3f}: E = {energy.E[j]:9.5f} "
          f"(17.4 e^-4t = {17.4 * np.exp(-4 * energy.times[j]):9.5f})   "
          f"J = {energy.J[j]:8.5f} (6.8 e^-4t = {6.8 * np.exp(-4 * energy.times[j]):8.5f})")

# comparison constants and the admissible window
beta0, beta1 = bs.beta_constants(prob)
lam_max, regime = bs.lambda_window(prob)
print(f"\nbeta0 = {beta0}, beta1 = {beta1}, window (0, {lam_max}) [{regime}]")

# the rate/overshoot trade-off across the window
print("\n  lambda      M_d     sigma")
for lam, m_d, sigma in bs.scan_lambda(beta0, beta1, lam_max, 9):
    print(f"  {lam:6.3f} {m_d:8.3f} {sigma:9.5f}")

# certificate at the default weight (99% of the window), decided with the
# energy trace, checked on the trace
bound = energy.bound
report = bs.verify_envelopes(energy, bound)
print(f"\nM_d = {bound.M_d:.4f}, sigma = {bound.sigma:.5f}")
print("violations (upper/lower/decay):",
      report.violations_upper, report.violations_lower, report.violations_decay)
print("informational only (forced end loads):", report.informational)

# the same pipeline on the homogeneous mast problem: the window there is
# certified post hoc from the run itself (damper-only regime) and comes with
# its energy trace
mast = bs.preset("mast_constant")
m_mesh = bs.Mesh(mast.length, 41)
m_grid = bs.TimeGrid.from_dt(mast.final_time, m_mesh.h / 40.0)
m_trace = bs.run(mast, m_mesh, m_grid)
m_energy = bs.energy(m_trace)
m_bound = m_energy.bound
m_report = bs.verify_envelopes(m_energy, m_bound)
print(f"\nmast: regime {m_bound.regime}, lambda_max {m_bound.lambda_max:.5f}, "
      f"sigma {m_bound.sigma:.5f}, envelope ok: {m_report.ok}")
print(f"mast energy balance defect max|E(0)-E-j| = {bs.identity_residual(m_energy):.2e}")

out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)
bs.export_energy_csv(energy, os.path.join(out, "ne1_energy.csv"))
print("\nwrote", os.path.join(out, "ne1_energy.csv"))
