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
for the homogeneous system as the discretization is refined.  The t = 0
entries, E(0) and the dissipation integrands, are evaluated once from the
analytic initial data, not the interpolant, so the residual isolates the
error of the evolution; ``initial_energy`` applies the same E formula to
them.

The curvature u_xx is the second derivative of the Hermite interpolant,
so E is the discrete energy ``1/2 v'Mv + 1/2 u'Ku`` of the run's own
matrices (v the centered velocity).

Fields are never formed for the whole history.  ``EnergyAccumulator`` is
fed the levels of one run one window of ``fem.windows`` at a time, in
order: a block of ``fem.CHUNK_LEVELS`` interior levels with both
neighbours.  The windows come from ``TimeStepper.blocks()`` as they are
made (every CLI command, none of which stores the history) or as views of
a stored history (``energy``).  For each window the velocity rows of its
block are formed (``fem.velocities``), u, u_t and the curvature are
evaluated at the element Gauss points (``fem.Quadrature``) into reused
buffers, and the block is reduced to per-level integrals at once, into
the run's one (9, N - 1) record over t_0..t_{N-2}, whose level 0 the
accumulator fills from the analytic initial data.  The damper-only window
of ``bounds.compute_decay_bound`` reads the record's kinetic row
``int rho u_t^2`` and tip velocities from t_0 on, so it costs no second
pass; the trace carries the certificate that bounds decides as
``EnergyTrace.bound``.  Memory beyond the levels fed in is a few
(CHUNK_LEVELS, E, q) blocks plus the O(N) record, and a streamed and
a stored run are fed the same windows, so they give bitwise the same
results.  ``export_energy_csv`` writes its rows in blocks of at most
about ``_g17.CHUNK`` numbers, each formatted by one ``_g17.fields`` call
and written in one call, byte-identical to a per-row ``%.17g`` writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .fem import (
    CHUNK_LEVELS,
    SemiDiscreteSystem,
    integrate_data,
    velocities,
    windows,
)
from .problem import BeamProblem
from .stepper import SolutionTrace, TimeGrid

__all__ = [
    "EnergyTrace",
    "EnergyAccumulator",
    "energy",
    "identity_residual",
    "initial_energy",
    "export_energy_csv",
]


def _initial_record(problem: BeamProblem) -> np.ndarray:
    """Level 0 of a run's record (rows as in ``EnergyAccumulator``), from the
    analytic initial data.  The two rows only J reads, the cross term and
    ``int mu u^2``, stay NaN: nothing reports J(0)."""
    u0, u1, L = problem.initial.u0, problem.initial.u1, problem.length
    kinetic = integrate_data(problem, lambda x: problem.rho(x) * u1(x) ** 2)
    bending = integrate_data(problem, lambda x: problem.rigidity(x) * u0.d2(x) ** 2)
    mu_rate = integrate_data(problem, lambda x: problem.mu(x) * u1(x) ** 2)
    return np.array([kinetic, bending, np.nan, np.nan, mu_rate,
                     u0(L), u0.d1(L), u1(L), u1.d1(L)], dtype=float)


def _energy(record: np.ndarray, bc) -> np.ndarray:
    """E at each level of a record (rows as in ``EnergyAccumulator``)."""
    kinetic, bending, _, _, _, end_disp, end_rot, _, _ = record
    return 0.5 * (kinetic + bending) + 0.5 * bc.k_r * end_rot**2 + 0.5 * bc.k_d * end_disp**2


def initial_energy(problem: BeamProblem) -> float:
    """Initial total energy from the analytic initial data."""
    return float(_energy(_initial_record(problem), problem.boundary))


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoidal integrals of y from its first sample to each later one."""
    return np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)


# ---------------------------------------------------------------------------
# the energy trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyTrace:
    """Energy diagnostics on interior grid times of one run.

    ``bound`` is the run's decay certificate, from
    ``bounds.compute_decay_bound``; ``window_error`` says why it is None: no
    certificate applies, or the damper-only window failed on this trace.
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
    bound: bounds.DecayBound | None
    forced: bool
    window_error: str | None = None


class EnergyAccumulator:
    """Energy diagnostics of one run, fed its history one window of
    ``fem.windows`` at a time, in order (the windows of
    ``TimeStepper.blocks()``, or those of a stored history).

    The run's record is one (9, N - 1) array over the grid times
    t_0..t_{N-2}, level j in column j.  Its rows are ``int rho u_t^2``,
    ``int r u_xx^2``, ``int rho u u_t``, ``int mu u^2``, ``int mu u_t^2``,
    u(L), u_x(L), u_t(L) and u_xt(L).  The constructor fills level 0 once
    from the analytic initial data, and ``add(window, first)`` reduces the
    window's interior levels, its block, into their columns; ``result()``
    returns the ``EnergyTrace`` once every level is in.
    ``bounds.compute_decay_bound`` takes the damper-only window from the
    rows u_t(L), u_xt(L) and ``int rho u_t^2`` from t_0 on, so the window
    costs no second pass.

    ``lam`` is the Lyapunov penalty weight, decided with the rest of the
    certificate by ``bounds.compute_decay_bound`` in ``result()``: None
    picks its default, and L is left unset when there is no certificate
    (e.g. undamped systems).  An explicit ``lam`` is rejected here when no
    run can make it admissible (``bounds.check_explicit_penalty``), so a run
    is not stepped for nothing, and by ``result()`` when the run's own
    window rejects it.
    """

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid,
                 lam: float | None = None):
        bounds.check_explicit_penalty(system.problem, lam)
        self._system, self._grid, self._lam = system, grid, lam
        self._next = 0   # the first level of the next window
        quad = system.quadrature
        # u, u_t and the curvature at the Gauss points, and a product; the
        # velocity rows; the zero-padded rows of ``fem.element_local``: reused
        # by every block, so the reduction allocates no block-sized arrays
        self._fields = np.empty((4, CHUNK_LEVELS, system.mesh.element_count, len(quad.xi)))
        self._velocity = np.empty((CHUNK_LEVELS, system.n))
        self._padded = np.zeros((CHUNK_LEVELS, system.n + 2))
        self._record = np.empty((9, grid.step_count - 1))
        self._record[:, 0] = _initial_record(system.problem)

    def add(self, window: np.ndarray, first: int) -> None:
        """Reduce the block of the next window, levels ``first ..``."""
        if first != self._next:
            raise ValueError(f"window at level {first} is not the next one, at level {self._next}")
        self._next = first + len(window) - 2
        u = window[1:-1]   # the block's rows, levels first + 1 .. self._next
        ut = velocities(window, self._grid.dt, self._velocity[:len(u)])
        quad = self._system.quadrature
        u_q, ut_q, curv_q, work = self._fields[:, :len(u)]
        padded = self._padded[:len(u)]
        quad.values(u, out=u_q, padded=padded)
        quad.values(ut, out=ut_q, padded=padded)
        quad.curvatures(u, out=curv_q, padded=padded)
        kinetic, bending, cross, mu_disp, mu_rate, end_disp, end_rot, tip_vel, tip_ang = \
            self._record[:, first + 1:self._next + 1]   # views of the block's columns
        kinetic[:] = quad.integral(quad.w_rho, ut_q, ut_q, work)
        bending[:] = quad.integral(quad.w_r, curv_q, curv_q, work)
        cross[:] = quad.integral(quad.w_rho, u_q, ut_q, work)
        mu_disp[:] = quad.integral(quad.w_mu, u_q, u_q, work)
        mu_rate[:] = quad.integral(quad.w_mu, ut_q, ut_q, work)
        end_disp[:], end_rot[:] = u[:, -2], u[:, -1]
        tip_vel[:], tip_ang[:] = ut[:, -2], ut[:, -1]

    def result(self) -> EnergyTrace:
        if self._next < self._grid.step_count - 2:
            raise ValueError(f"interior levels {self._next + 1}.. were never added")
        problem, dt = self._system.problem, self._grid.dt
        bc = problem.boundary
        kinetic, _, cross, mu_disp, mu_rate, end_disp, end_rot, tip_vel, tip_ang = self._record
        bound = window_error = None
        try:
            bound = bounds.compute_decay_bound(problem, lam=self._lam, run=(
                self._grid, tip_vel, tip_ang, kinetic))
        except ValueError as exc:
            if self._lam is not None:
                raise
            window_error = str(exc)

        # E and J on the interior times t_1..t_{N-2}; J is not read at t_0
        e_vals = _energy(self._record, bc)
        e0, e_vals = float(e_vals[0]), e_vals[1:]
        j_vals = (cross + 0.5 * mu_disp
                  + 0.5 * bc.k_a * end_rot**2 + 0.5 * bc.k_v * end_disp**2)[1:]
        # the dissipation integrands are read on t_0..t_{N-2}
        j_mu = _cumulative_trapezoid(mu_rate, dt)
        j_a = _cumulative_trapezoid(bc.k_a * tip_ang**2, dt)
        j_v = _cumulative_trapezoid(bc.k_v * tip_vel**2, dt)
        residual = e0 - e_vals - (j_mu + j_a + j_v)
        lyapunov = e_vals + bound.lam * j_vals if bound is not None else None

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
            bound=bound,
            forced=problem.has_forcing,
            window_error=window_error,
        )


def energy(trace: SolutionTrace, lam: float | None = None) -> EnergyTrace:
    """Compute E, J, L and the dissipation integrals of a stored trace: its
    history fed to an ``EnergyAccumulator`` window by window (see there for
    ``lam``)."""
    acc = EnergyAccumulator(trace.system, trace.grid, lam)
    for first, stop in windows(trace.grid.step_count):
        acc.add(trace.dof_history[first:stop], first)
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
    """Write the energy trace as CSV rows ``t, E, J, L, j_mu, j_a, j_v, residual``;
    L is ``nan`` when it is unset.  The rows go in blocks of at most about
    ``_g17.CHUNK`` numbers, each formatted by one ``_g17.fields`` call, laid
    out as one uint8 matrix with its separators and written in one call
    with the NUL padding removed."""
    from . import _g17   # loaded by the runs that write energy.csv, not by the CLI's import

    et = energy_trace
    lam_col = et.L if et.L is not None else np.full_like(et.E, np.nan)
    columns = (et.times, et.E, et.J, lam_col, et.j_mu, et.j_a, et.j_v, et.residual)
    width = _g17.WIDTH
    line = np.zeros((len(columns), width + 2), np.uint8)   # each number and ", " or "\n"
    line[:, width:] = np.frombuffer(b", ", np.uint8)
    line[-1, width:] = [ord("\n"), 0]
    rows = max(1, _g17.CHUNK // len(columns))
    with open(path, "wb") as fh:
        fh.write(b"t, E, J, L, j_mu, j_a, j_v, residual\n")
        for lo in range(0, len(et.times), rows):
            block = np.column_stack([c[lo:lo + rows] for c in columns])
            lines = np.empty((len(block),) + line.shape, np.uint8)
            lines[:] = line
            lines[:, :, :width] = _g17.fields(block.ravel()).reshape(block.shape + (width,))
            fh.write(_g17.text(lines))
