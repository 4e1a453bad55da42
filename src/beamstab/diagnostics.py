"""Energy and Lyapunov diagnostics computed from a solution trace.

For a trace ``U^0..U^{N-1}`` the velocity at interior grid times is the
centered difference quotient ``(U^{j+1} - U^{j-1}) / (2 dt)``, matching the
post-processing used to report the energy curves; the first and last levels
are excluded rather than one-sided.  Per interior time the module evaluates

    E = 1/2 int(rho u_t^2 + r u_xx^2) + 1/2 k_r u_x(L)^2 + 1/2 k_d u(L)^2
    J = int(rho u u_t) + 1/2 int(mu u^2) + 1/2 k_a u_x(L)^2 + 1/2 k_v u(L)^2
    L = E + lambda J

together with the cumulative dissipation integrals

    j_mu = int_0^t int mu u_t^2 dx dtau,   j_a = k_a int_0^t u_xt(L)^2 dtau,
    j_v  = k_v int_0^t u_t(L)^2 dtau

and the balance residual ``E(0) - E(t) - (j_mu + j_a + j_v)``, which vanishes
for the homogeneous system as the discretization is refined.  E(0) is
evaluated from the analytic initial data, not the interpolant, so the
residual isolates the error of the evolution.

Curvature comes in two flavors: ``mode='basis'`` differentiates the Hermite
interpolant exactly, ``mode='paper'`` reproduces the reference
post-processing (centered x-differences of the nodal slopes, linearly
interpolated between nodes).

Fields are never formed for the whole history.  ``EnergyAccumulator`` is
fed the levels of one run as consecutive blocks of any sizes: the blocks
of ``TimeStepper.blocks()`` as they are made (the CLI's ``simulate``,
``sweep`` and ``bounds``, which never store the history) or a stored
history as one block (``energy``).  ``fem.InteriorBlocks`` regroups them
into blocks of ``fem.CHUNK_LEVELS`` interior levels; each block's velocity
rows are formed, u, u_t and the curvature are evaluated at the element
Gauss points (``fem.Quadrature``) into reused buffers, and the block is
reduced to per-level integrals at once.  In the damper-only regime the same
velocities feed a ``bounds.DamperWindow``, so the window costs no second
pass.  Memory beyond the levels fed in is a few (CHUNK_LEVELS, E, q) blocks
plus O(N) per-level arrays, and the per-block partition is the same
however the levels arrive, so a streamed and a stored run give bitwise the
same results.  ``export_energy_csv`` writes its rows in blocks of
CHUNK_LEVELS too, one ``%`` template and one write per block,
byte-identical to a per-row ``%.17g`` writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bounds
from .fem import (
    CHUNK_LEVELS,
    InteriorBlocks,
    SemiDiscreteSystem,
    evaluate_solution,
    integrate_data,
)
from .problem import BeamProblem
from .stepper import SolutionTrace, TimeGrid

__all__ = [
    "EnergyTrace",
    "EnergyAccumulator",
    "time_derivative",
    "curvature_field",
    "energy",
    "identity_residual",
    "initial_energy",
    "kinetic_integral",
    "export_energy_csv",
]

MODES = ("paper", "basis")


def initial_energy(problem: BeamProblem) -> float:
    """Initial total energy from the analytic initial data."""
    u0, u1 = problem.initial.u0, problem.initial.u1
    bending = integrate_data(problem, lambda x: problem.rigidity(x) * u0.d2(x) ** 2)
    kinetic = integrate_data(problem, lambda x: problem.rho(x) * u1(x) ** 2)
    L, bc = problem.length, problem.boundary
    return 0.5 * (kinetic + bending) + 0.5 * bc.k_r * float(u0.d1(L)) ** 2 \
        + 0.5 * bc.k_d * float(u0(L)) ** 2


def _nodal_curvature(dofs2d: np.ndarray, h: float) -> np.ndarray:
    """Centered x-differences of the nodal slopes; one-sided at the two ends."""
    theta = np.concatenate([np.zeros((dofs2d.shape[0], 1)), dofs2d[:, 1::2]], axis=1)
    out = np.empty_like(theta)
    out[:, 1:-1] = (theta[:, 2:] - theta[:, :-2]) / (2.0 * h)
    out[:, 0] = (-3.0 * theta[:, 0] + 4.0 * theta[:, 1] - theta[:, 2]) / (2.0 * h)
    out[:, -1] = (3.0 * theta[:, -1] - 4.0 * theta[:, -2] + theta[:, -3]) / (2.0 * h)
    return out


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoidal integrals of y from its first sample to each later one."""
    return np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)


# ---------------------------------------------------------------------------
# per-level operations
# ---------------------------------------------------------------------------

def time_derivative(trace: SolutionTrace, j: int) -> np.ndarray:
    """Centered velocity DOF vector at interior grid level j (0-based)."""
    n_levels = trace.grid.step_count
    if not 1 <= j <= n_levels - 2:
        raise ValueError(f"level {j} has no centered quotient (need 1 <= j <= {n_levels - 2})")
    hist = trace.dof_history
    return (hist[j + 1] - hist[j - 1]) / (2.0 * trace.grid.dt)


def curvature_field(trace: SolutionTrace, j: int, mode: str = "basis"):
    """Curvature profile ``x -> u_xx(x, t_j)`` in the requested mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    system = trace.system
    dofs = trace.dof_history[j]
    if mode == "basis":
        def field(x):
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.array([evaluate_solution(system, dofs, xv)[2] for xv in xs])
            return out if np.ndim(x) else float(out[0])

        return field
    nodes = _nodal_curvature(dofs[None, :], system.mesh.h)[0]
    xs_nodes = system.mesh.nodes

    def field(x):
        return np.interp(x, xs_nodes, nodes)

    return field


def kinetic_integral(trace: SolutionTrace, j: int) -> float:
    """``int rho u_t(x, t_j)^2 dx`` at an interior grid level."""
    quad = trace.system.quadrature
    ut = quad.values(time_derivative(trace, j)[None, :])
    return float(quad.integral(quad.w_rho, ut, ut)[0])


# ---------------------------------------------------------------------------
# the energy trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyTrace:
    """Energy diagnostics on interior grid times of one run.

    ``window_error`` says why ``lambda_max`` is None: no certificate applies,
    or the damper-only window failed on this trace.
    """

    times: np.ndarray
    E: np.ndarray
    J: np.ndarray
    L: np.ndarray | None
    j_mu: np.ndarray
    j_a: np.ndarray
    j_v: np.ndarray
    residual: np.ndarray
    E0: float
    lam: float | None
    lambda_max: float | None
    mode: str
    forced: bool
    problem: BeamProblem
    window_error: str | None = None


class EnergyAccumulator:
    """Energy diagnostics of one run, fed its history as consecutive blocks of
    levels of any sizes (the blocks of ``TimeStepper.blocks()``, or a stored
    history as one block).

    ``add(block)`` reduces every interior block it completes (see
    ``fem.InteriorBlocks``) to per-level integrals and tip values;
    ``result()`` reduces the last one and returns the ``EnergyTrace``.  In
    the damper-only regime the same Gauss-point velocities feed a
    ``bounds.DamperWindow``, so the window costs no second pass.

    ``lam`` is the Lyapunov penalty weight; None picks 99% of the admissible
    window (and leaves L unset when no window exists, e.g. undamped
    systems).  An explicit ``lam`` outside the window is rejected: here when
    the window does not depend on the run, by ``result()`` when it does.
    """

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid,
                 lam: float | None = None, mode: str = "paper"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        problem = system.problem
        self._system, self._grid, self._lam, self._mode = system, grid, lam, mode
        self._window = self._lam_max = self._window_error = None
        try:
            if bounds.classify_regime(problem) == "theorem2":
                self._window = bounds.DamperWindow(problem, grid)
            else:
                self._lam_max, _ = bounds.lambda_window(problem)
        except ValueError as exc:
            self._window_error = str(exc)
        if self._window is None:
            self._check_lam()
        self._chunks = InteriorBlocks(system.n, grid.dt)
        quad = system.quadrature
        self._lerp = np.stack([1.0 - quad.xi, quad.xi])  # nodal values -> Gauss points
        # u, u_t and the curvature at the Gauss points, and a product: reused
        # by every block, so the reduction allocates no block-sized arrays
        self._fields = np.empty((4, CHUNK_LEVELS, system.mesh.element_count, len(quad.xi)))
        (self._kinetic, self._bending, self._cross, self._mu_disp, self._mu_rate,
         self._end_disp, self._end_rot, self._tip_vel, self._tip_ang) = \
            np.empty((9, grid.step_count - 2))

    def _check_lam(self) -> None:
        lam, lam_max = self._lam, self._lam_max
        if lam is None:
            return
        if lam_max is None:
            raise ValueError(f"no admissible penalty weight: {self._window_error}")
        if not 0.0 < lam < lam_max:
            raise ValueError(
                f"lambda must satisfy 0 < lambda < lambda_max = {lam_max:.12g}; got {lam:g}")

    def add(self, block: np.ndarray) -> None:
        for piece in self._chunks.push(block):
            self._reduce(*piece)

    def _reduce(self, out: slice, u: np.ndarray, ut: np.ndarray) -> None:
        quad = self._system.quadrature
        u_q, ut_q, curv_q, work = self._fields[:, :len(u)]
        quad.values(u, out=u_q)
        quad.values(ut, out=ut_q)
        if self._mode == "basis":
            quad.curvatures(u, out=curv_q)
        else:
            np.matmul(sliding_window_view(_nodal_curvature(u, self._system.mesh.h), 2, axis=1),
                      self._lerp, out=curv_q)
        self._kinetic[out] = quad.integral(quad.w_rho, ut_q, ut_q, work)
        self._bending[out] = quad.integral(quad.w_r, curv_q, curv_q, work)
        self._cross[out] = quad.integral(quad.w_rho, u_q, ut_q, work)
        self._mu_disp[out] = quad.integral(quad.w_mu, u_q, u_q, work)
        self._mu_rate[out] = quad.integral(quad.w_mu, ut_q, ut_q, work)
        self._end_disp[out], self._end_rot[out] = u[:, -2], u[:, -1]
        self._tip_vel[out], self._tip_ang[out] = ut[:, -2], ut[:, -1]
        if self._window is not None:
            self._window.add(out, ut, quad.integral(quad.w_plain, ut_q, ut_q, work))

    def result(self) -> EnergyTrace:
        for piece in self._chunks.flush():
            self._reduce(*piece)
        problem, dt = self._system.problem, self._grid.dt
        if self._window is not None:
            try:
                self._lam_max, _ = bounds.lambda_window(problem, self._window)
            except ValueError as exc:
                self._window_error = str(exc)
            self._check_lam()
        lam, lam_max = self._lam, self._lam_max
        if lam is None and lam_max is not None:
            lam = 0.99 * lam_max

        bc = problem.boundary
        end_disp, end_rot = self._end_disp, self._end_rot
        e_vals = 0.5 * (self._kinetic + self._bending) \
            + 0.5 * bc.k_r * end_rot**2 + 0.5 * bc.k_d * end_disp**2
        j_vals = self._cross + 0.5 * self._mu_disp \
            + 0.5 * bc.k_a * end_rot**2 + 0.5 * bc.k_v * end_disp**2

        # dissipation integrands on grid times 0..N-2; t = 0 from analytic data
        u1 = problem.initial.u1
        L = problem.length
        mu_rate0 = integrate_data(problem, lambda x: problem.mu(x) * u1(x) ** 2)
        mu_rate = np.concatenate([[mu_rate0], self._mu_rate])
        a_rate = np.concatenate([[bc.k_a * float(u1.d1(L)) ** 2], bc.k_a * self._tip_ang**2])
        v_rate = np.concatenate([[bc.k_v * float(u1(L)) ** 2], bc.k_v * self._tip_vel**2])

        j_mu = _cumulative_trapezoid(mu_rate, dt)
        j_a = _cumulative_trapezoid(a_rate, dt)
        j_v = _cumulative_trapezoid(v_rate, dt)

        e0 = initial_energy(problem)
        residual = e0 - e_vals - (j_mu + j_a + j_v)
        lyapunov = e_vals + lam * j_vals if lam is not None else None

        return EnergyTrace(
            times=self._grid.times[1:-1],
            E=e_vals,
            J=j_vals,
            L=lyapunov,
            j_mu=j_mu,
            j_a=j_a,
            j_v=j_v,
            residual=residual,
            E0=e0,
            lam=lam,
            lambda_max=lam_max,
            mode=self._mode,
            forced=problem.has_forcing,
            problem=problem,
            window_error=self._window_error,
        )


def energy(trace: SolutionTrace, lam: float | None = None, mode: str = "paper") -> EnergyTrace:
    """Compute E, J, L and the dissipation integrals of a stored trace: its
    history fed to an ``EnergyAccumulator`` as one block (see there for
    ``lam``)."""
    acc = EnergyAccumulator(trace.system, trace.grid, lam, mode)
    acc.add(trace.dof_history)
    return acc.result()


def identity_residual(energy_trace: EnergyTrace) -> float:
    """Worst-case energy-balance defect ``max |E(0) - E(t) - (j_mu + j_a + j_v)|``.

    Only meaningful for homogeneous end forcing; forced runs are refused
    because the balance then includes the work of the end loads.
    """
    if energy_trace.forced:
        raise ValueError(
            "energy balance is only an identity for zero boundary forcing; "
            "this trace was produced with nonzero g_M/g_Q")
    return float(np.max(np.abs(energy_trace.residual)))


def export_energy_csv(energy_trace: EnergyTrace, path) -> None:
    """Write the energy trace as CSV rows ``t, E, J, L, j_mu, j_a, j_v, residual``,
    in blocks of CHUNK_LEVELS rows; L is ``nan`` when it is unset."""
    et = energy_trace
    lam_col = et.L if et.L is not None else np.full_like(et.E, np.nan)
    columns = (et.times, et.E, et.J, lam_col, et.j_mu, et.j_a, et.j_v, et.residual)
    row = ", ".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write("t, E, J, L, j_mu, j_a, j_v, residual\n")
        for lo in range(0, len(et.times), CHUNK_LEVELS):
            block = np.column_stack([c[lo:lo + CHUNK_LEVELS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
