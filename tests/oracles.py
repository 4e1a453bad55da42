"""Reference implementations the tests check the library against.

Nothing here is part of the package: each oracle is either a one-case
slice of a batched library path (``step``, ``element_matrices``) or an
independent computation of what the library computes (the 50-point Gauss
element integrals, the scalar three-level recurrence solved by hand, the
trapezoidal start in its acceleration form).
"""

import numpy as np

from beamstab import fem
from beamstab.fem import BandedSymmetricMatrix, SemiDiscreteSystem

# independent shape definitions for oracle integration (coefficient arrays
# for np.polyval, highest power first); slope shapes scale by h separately
HERMITE_POLYS = [
    np.array([2.0, -3.0, 0.0, 1.0]),   # 1 - 3 s^2 + 2 s^3
    np.array([1.0, -2.0, 1.0, 0.0]),   # s - 2 s^2 + s^3
    np.array([-2.0, 3.0, 0.0, 0.0]),   # 3 s^2 - 2 s^3
    np.array([1.0, -1.0, 0.0, 0.0]),   # -s^2 + s^3
]


def step(stepper, history, j: int) -> np.ndarray:
    """Advance ``stepper`` to level j >= 3 from history ``(U^{j-3}, U^{j-2},
    U^{j-1})``: one level of the ``TimeStepper.blocks`` loop on its own, with
    the three levels concatenated and a fresh right-hand side."""
    if j < 3:
        raise ValueError("step needs three history levels (j >= 3)")
    u3, u2, u1 = history
    ops = stepper._operators
    rhs = ops.history @ np.concatenate([u3, u2, u1])
    rhs[-2:] += stepper.system.end_load(stepper.grid.times[j])
    ops.step.solve_in_place(rhs)
    return u1 + rhs


def trapezoidal_start(system, grid) -> list[np.ndarray]:
    """Levels 0, 1, 2 of a run: the interpolated initial displacement and
    two trapezoidal steps of the first-order system, in the acceleration
    form, with dense matrices and ``np.linalg.solve``: the acceleration
    starts from ``M a_0 = F_0 - C v_0 - K u_0`` and each step solves
    ``(2M/dt + C + dt K/2) v_{k+1} = F_{k+1} + M (2 v_k / dt + a_k) - K (u_k + dt v_k / 2)``."""
    m, c, k = (mat.to_dense() for mat in (system.mass, system.damping, system.stiffness))
    dt = grid.dt
    loads = np.zeros((3, system.n))
    loads[:, -2:] = system.end_load(grid.times[:3])
    u = fem.interpolate_profile(system.problem.initial.u0, system.mesh)
    v = fem.interpolate_profile(system.problem.initial.u1, system.mesh)
    a = np.linalg.solve(m, loads[0] - c @ v - k @ u)
    lhs = 2.0 / dt * m + c + 0.5 * dt * k
    levels = [u]
    for j in (1, 2):
        v_new = np.linalg.solve(lhs, loads[j] + m @ (2.0 / dt * v + a) - k @ (u + 0.5 * dt * v))
        u = u + 0.5 * dt * (v + v_new)
        a = 2.0 / dt * (v_new - v) - a
        v = v_new
        levels.append(u)
    return levels


def step_levels(stepper, levels, count: int) -> list[np.ndarray]:
    """``levels`` 0, 1, 2, ... (three at least) continued by ``step`` up to
    level count - 1."""
    levels = list(levels)
    for j in range(len(levels), count):
        levels.append(step(stepper, levels[-3:], j))
    return levels


def element_matrices(problem, x_left: float, h: float):
    """Element mass/damping/stiffness for one element [x_left, x_left + h]:
    the one-element case of what ``fem.assemble`` computes for all elements.

    Local DOF order is (left value, left slope, right value, right slope);
    no boundary or clamping terms are applied here.
    """
    xi, weights = fem._gauss_weights(problem, np.array([x_left], dtype=float), h)
    return tuple(m[0] for m in fem._element_batch(fem.FieldKernel(h, xi), weights))


def gauss_element_matrices(h, rho_fn, r_fn, points=50):
    """Dense element mass/stiffness via high-order Gauss on [0, h], from the
    independent ``HERMITE_POLYS``."""
    s, w = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    scale = np.array([1.0, h, 1.0, h])
    vals = np.stack([np.polyval(p, s) for p in HERMITE_POLYS]) * scale[:, None]
    d2 = np.stack([np.polyval(np.polyder(p, 2), s) for p in HERMITE_POLYS])
    d2 = d2 * (scale / h**2)[:, None]
    x = h * s
    m = h * np.einsum("q,aq,bq->ab", w * rho_fn(x), vals, vals)
    k = h * np.einsum("q,aq,bq->ab", w * r_fn(x), d2, d2)
    return m, k


def scalar_system(m, c, k) -> SemiDiscreteSystem:
    """The 1-DOF system ``m u'' + c u' + k u = 0``; its one DOF is its
    only end DOF, so its end loads have one (zero) entry a time."""
    def mat(v):
        out = BandedSymmetricMatrix(1)
        out.add(0, 0, v)
        return out
    return SemiDiscreteSystem(mat(m), mat(c), mat(k), lambda t: np.zeros(np.shape(t) + (1,)),
                              None, None)


def hand_recurrence(m, c, k, dt, start, count: int) -> list[float]:
    """Levels 0 .. count - 1 of the scalar three-level recurrence
    ``(2m/dt^2 + 3c/(2dt) + k) u_j = m (5 u_{j-1} - 4 u_{j-2} + u_{j-3}) / dt^2
    + c (4 u_{j-1} - u_{j-2}) / (2 dt)``, solved by hand from the three
    ``start`` levels."""
    lhs = 2.0 * m / dt**2 + 1.5 * c / dt + k
    u = list(start)
    while len(u) < count:
        u.append((m * (5 * u[-1] - 4 * u[-2] + u[-3]) / dt**2
                  + c * (4 * u[-1] - u[-2]) / (2 * dt)) / lhs)
    return u
