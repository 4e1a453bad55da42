"""Simulating the verification problem with the known exact solution.

The reference problem (preset ``test_NE1``) has coefficients rho = 1,
mu = 2, r = 1 + x, end constants k_r = 6, k_d = 4, k_a = 3, k_v = 2 and the
exact solution u = x^2 exp(-2t), which needs the exponential end forcing
g_M = -4 exp(-2t), g_Q = 2 exp(-2t).  Because x^2 lies in the Hermite
space, the computed error is purely temporal.
"""

import os

import numpy as np

import beamstab as bs
from beamstab.fem import FieldKernel, nodal

prob = bs.preset("test_NE1")
exact = bs.exact_solution("test_NE1")

# mesh with 41 nodes and the time step tied to the mesh, dt = h_x / 40
mesh = bs.Mesh(prob.length, 41)
grid = bs.TimeGrid.from_dt(prob.final_time, mesh.h / 40.0)
print(f"mesh h = {mesh.h:g}, dt = {grid.dt:g}, {grid.step_count} time levels")

trace = bs.run(prob, mesh, grid)

# nodal error against the exact solution over the whole space-time grid
hist = trace.dof_history
u_num = nodal(hist, 0)
u_ref = exact.u(mesh.nodes[None, :], grid.times[:, None])
print(f"max nodal |u - exact| = {np.max(np.abs(u_num - u_ref)):.3e}")

# probes at fixed points, at the interior grid time nearest t: u and u_xx of
# the Hermite interpolant on the point's element, and u_t from the centered
# velocity rows
for (x, t) in ((0.5, 0.75), (1.0, 1.25), (0.25, 0.1)):
    e = min(int(x / mesh.h), mesh.element_count - 1)
    kernel = FieldKernel(mesh.h, [min(x / mesh.h - e, 1.0)])
    j = round(t / grid.dt)
    t = grid.times[j]
    u = kernel.values(hist[j:j + 1])[0, e, 0]
    u_xx = kernel.curvatures(hist[j:j + 1])[0, e, 0]
    u_t = kernel.values((hist[j + 1:j + 2] - hist[j - 1:j]) / (2.0 * grid.dt))[0, e, 0]
    print(f"x = {x}, t = {t:g}:  u = {u:+.6f} (exact {float(exact.u(x, t)):+.6f})   "
          f"u_xx = {u_xx:+.6f} (exact {float(exact.u_xx(x, t)):+.6f})   "
          f"u_t = {u_t:+.6f} (exact {float(exact.u_t(x, t)):+.6f})")

# exports: one CSV row per node per (decimated) time level
out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)
bs.export_trace_csv(trace, os.path.join(out, "ne1_trace.csv"), decimate=40)
print("wrote", os.path.join(out, "ne1_trace.csv"))
