"""Convergence behavior of the scheme: temporal order and energy balance.

Two studies:

* on the exact-solution problem, halving the time step at a fixed mesh
  shows the second-order accuracy of the backward-difference stepping
  (the spatial error is zero because x^2 lies in the Hermite space);

* on a homogeneous preset, the energy-balance defect
  E(0) - E(t) - (j_mu + j_a + j_v) shrinks at second order under
  simultaneous space-time refinement.
"""

import numpy as np

import beamstab as bs
from beamstab.fem import nodal

# ---- temporal order on the exact-solution problem ---------------------------

prob = bs.preset("test_NE1")
exact = bs.exact_solution("test_NE1")
mesh = bs.Mesh(prob.length, 11)

print("temporal refinement at fixed mesh (11 nodes):")
errors = []
for dt in (1 / 100, 1 / 200, 1 / 400, 1 / 800):
    grid = bs.TimeGrid.from_dt(prob.final_time, dt)
    trace = bs.run(prob, mesh, grid)
    u = nodal(trace.dof_history, 0)
    err = np.max(np.abs(u - exact.u(mesh.nodes[None, :], grid.times[:, None])))
    errors.append(err)
    order = "" if len(errors) == 1 else f"   order {np.log2(errors[-2] / err):.3f}"
    print(f"  dt = {dt:9.6f}   max error {err:.3e}{order}")

print("\nspatial refinement at fixed dt = 1/2000 (error stays put, the exact")
print("solution already lies in the coarsest Hermite space):")
grid = bs.TimeGrid.from_dt(prob.final_time, 1 / 2000)
for nodes in (6, 11, 21, 41):
    m = bs.Mesh(prob.length, nodes)
    trace = bs.run(prob, m, grid)
    u = nodal(trace.dof_history, 0)
    err = np.max(np.abs(u - exact.u(m.nodes[None, :], grid.times[:, None])))
    print(f"  {nodes:3d} nodes   max error {err:.3e}")

# ---- energy-balance defect under simultaneous refinement ---------------------

print("\nenergy-balance defect on the spring-held cantilever:")
spring = bs.preset("cantilever_spring")
residuals = []
for level in range(4):
    nodes = 10 * 2**level + 1
    m = bs.Mesh(spring.length, nodes)
    grid = bs.TimeGrid.from_dt(spring.final_time, m.h / 40.0)
    energy = bs.energy(bs.run(spring, m, grid))
    res = bs.identity_residual(energy)
    residuals.append(res)
    order = "" if level == 0 else f"   order {np.log2(residuals[-2] / res):.3f}"
    print(f"  {nodes:3d} nodes, dt = {grid.dt:9.6f}   "
          f"defect {res:.3e} ({res / energy.E0:.2e} of E(0)){order}")
