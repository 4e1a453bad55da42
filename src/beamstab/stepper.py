"""Implicit time integration of the semi-discrete beam system.

The second-order ODE system ``M u'' + C u' + K u = F(t)`` is advanced with
three-level backward difference quotients

    u'(t_j)  ~ (3 U^j - 4 U^{j-1} + U^{j-2}) / (2 dt)
    u''(t_j) ~ (2 U^j - 5 U^{j-1} + 4 U^{j-2} - U^{j-3}) / dt^2

so each step solves one SPD banded system whose matrix is factored once per
run.  The scheme needs three history levels; the first two steps come from
the trapezoidal rule on the first-order reformulation, which keeps the
global order at two.

``TimeStepper.step`` advances one level on its own and is the reference
the whole-run loop ``TimeStepper.blocks`` is tested against.  The step
matrix is constant (fixed dt), so the loop factors it once and repeats only
the two banded triangular solves (LAPACK ``dpbtrs``, in place on the new
level's row).  It evaluates the end loads once over the whole grid and
builds each right-hand side in preallocated vectors with the same
operations in the same order as ``step``: ``load + M x1``, then ``+ C x2``,
with ``x1 = (5 U^{j-1} - 4 U^{j-2} + U^{j-3}) / dt^2`` and
``x2 = (4 U^{j-1} - U^{j-2}) / (2 dt)``.  The history is therefore bitwise
identical to startup() followed by repeated step().

``blocks`` yields the history CHUNK_LEVELS levels at a time and keeps only
the block being computed, the three levels before it and the block before
that, so a caller that reduces each block as it comes (``diagnostics.EnergyAccumulator``,
``TraceWriter``) holds O(CHUNK_LEVELS n) of the run, not O(N n).  Each
block is checked for non-finite values before it is yielded, so a run that
blows up stops there and reports the first bad time.  ``run`` keeps every
block in a ``SolutionTrace`` for the callers that need random access to
the levels (interpolation, error norms against an exact solution).

``TraceWriter`` writes the trace block by block: it takes up to
CHUNK_LEVELS written levels at a time, formats them with one ``%``
template (node labels and the clamped node's zeros baked in, each t
formatted once) and writes them in one call.  Its output is byte-identical
to a per-row ``%.17g`` writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    CHUNK_LEVELS,
    Mesh,
    SemiDiscreteSystem,
    assemble,
    combine,
    evaluate_solution,
    interpolate_profile,
)

__all__ = ["TimeGrid", "SolutionTrace", "TimeStepper", "TraceWriter", "run",
           "run_system", "interpolate", "export_trace_csv"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_j = j * dt, j = 0..N-1, with t_{N-1} = final_time."""

    final_time: float
    step_count: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.step_count < 4:
            raise ValueError("time grid needs at least 4 levels (3-level stencil)")
        if self.final_time <= 0.0:
            raise ValueError("final_time must be positive")
        object.__setattr__(self, "times",
                           np.linspace(0.0, self.final_time, self.step_count))

    @property
    def dt(self) -> float:
        return self.final_time / (self.step_count - 1)

    @staticmethod
    def from_dt(final_time: float, dt: float) -> "TimeGrid":
        """Grid whose spacing matches ``dt`` as closely as uniformity allows."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        n = max(4, int(round(final_time / dt)) + 1)
        return TimeGrid(final_time, n)


@dataclass(frozen=True)
class SolutionTrace:
    """DOF history of one run: ``dof_history[j]`` holds the solution at t_j."""

    grid: TimeGrid
    dof_history: np.ndarray
    system: SemiDiscreteSystem

    @property
    def problem(self):
        return self.system.problem


class TimeStepper:
    """Carries the factored iteration matrices for one (system, grid) pair."""

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid):
        self.system = system
        self.grid = grid
        dt = grid.dt
        m, c, k = system.mass, system.damping, system.stiffness
        self._step_solve = combine(
            [(2.0 / dt**2, m), (1.5 / dt, c), (1.0, k)]).factor()
        self._startup_solve = combine(
            [(2.0 / dt, m), (1.0, c), (0.5 * dt, k)]).factor()
        self._mass_solve = m.factor()

    def initial_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated initial displacement/velocity and consistent acceleration.

        The acceleration solves ``M a = F(0) - C v0 - K u0``.
        """
        sys_ = self.system
        initial = sys_.problem.initial
        u = interpolate_profile(initial.u0, sys_.mesh, sys_.dof_map)
        v = interpolate_profile(initial.u1, sys_.mesh, sys_.dof_map)
        a = self._mass_solve.solve(
            sys_.load(0.0) - sys_.damping.matvec(v) - sys_.stiffness.matvec(u))
        return u, v, a

    def startup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First three DOF vectors: interpolated data plus two trapezoidal steps."""
        sys_, grid = self.system, self.grid
        dt = grid.dt
        u, v, a = self.initial_state()
        levels = [u]
        for k in range(2):
            rhs = (sys_.load(grid.times[k + 1])
                   + (2.0 / dt) * sys_.mass.matvec(v)
                   + sys_.mass.matvec(a)
                   - sys_.stiffness.matvec(u)
                   - (0.5 * dt) * sys_.stiffness.matvec(v))
            v_new = self._startup_solve.solve(rhs)
            u = u + 0.5 * dt * (v + v_new)
            a = (2.0 / dt) * (v_new - v) - a
            v = v_new
            levels.append(u)
        return tuple(levels)

    def step(self, history, j: int) -> np.ndarray:
        """Advance to level j >= 3 from history ``(U^{j-3}, U^{j-2}, U^{j-1})``."""
        if j < 3:
            raise ValueError("step needs three history levels (j >= 3)")
        u3, u2, u1 = history
        dt = self.grid.dt
        rhs = (self.system.load(self.grid.times[j])
               + self.system.mass.matvec((5.0 * u1 - 4.0 * u2 + u3) / dt**2)
               + self.system.damping.matvec((4.0 * u1 - u2) / (2.0 * dt)))
        return self._step_solve.solve(rhs)

    def blocks(self):
        """Integrate over the whole grid, yielding the history as consecutive
        (levels, n) blocks of CHUNK_LEVELS levels (the last may be shorter).

        Each block is computed in a fresh buffer of CHUNK_LEVELS + 3 rows
        whose first three hold the last three levels of the previous block,
        so a yielded block is never written again.  It is checked for
        non-finite values before it is yielded; a run that blows up raises
        FloatingPointError naming the first bad time and yields nothing
        past it.
        """
        sys_, grid = self.system, self.grid
        n_levels, n, dt = grid.step_count, sys_.n, grid.dt
        end_loads = sys_.end_load(grid.times)
        dt2, two_dt = dt**2, 2.0 * dt
        mass, damping = sys_.mass, sys_.damping
        solve = self._step_solve.solve_in_place
        load, x1, x2, tmp, y_m, y_c = np.zeros((6, n))
        buf = np.empty((CHUNK_LEVELS + 3, n))  # level j of block [lo, hi) in row j - lo + 3
        buf[3:6] = self.startup()
        for lo in range(0, n_levels, CHUNK_LEVELS):
            hi = min(lo + CHUNK_LEVELS, n_levels)
            if lo:
                buf, previous = np.empty_like(buf), buf
                buf[:3] = previous[-3:]
            for j in range(max(lo, 3), hi):
                row = j - lo + 3
                u3, u2, u1 = buf[row - 3], buf[row - 2], buf[row - 1]
                np.multiply(5.0, u1, out=x1)
                np.multiply(4.0, u2, out=tmp)
                np.subtract(x1, tmp, out=x1)
                np.add(x1, u3, out=x1)
                np.divide(x1, dt2, out=x1)
                np.multiply(4.0, u1, out=x2)
                np.subtract(x2, u2, out=x2)
                np.divide(x2, two_dt, out=x2)
                load[-2:] = end_loads[j]
                mass.matvec(x1, out=y_m)
                damping.matvec(x2, out=y_c)
                new = buf[row]
                np.add(load, y_m, out=new)
                np.add(new, y_c, out=new)
                solve(new)
            block = buf[3:hi - lo + 3]
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                t = grid.times[lo + int(np.argmax(bad))]
                raise FloatingPointError(
                    f"time integration produced non-finite values at t = {t:.12g}")
            yield block

    def run(self) -> SolutionTrace:
        """Integrate over the whole grid and keep every block of ``blocks()``;
        bitwise equal to startup() + step()."""
        history = np.empty((self.grid.step_count, self.system.n))
        lo = 0
        for block in self.blocks():
            history[lo:lo + len(block)] = block
            lo += len(block)
        return SolutionTrace(self.grid, history, self.system)


def run_system(system: SemiDiscreteSystem, grid: TimeGrid) -> SolutionTrace:
    """Integrate an assembled system over a time grid."""
    return TimeStepper(system, grid).run()


def run(problem, mesh: Mesh, grid: TimeGrid, quad_points: int = 4) -> SolutionTrace:
    """Assemble and integrate in one call; deterministic for fixed inputs."""
    return run_system(assemble(problem, mesh, quad_points), grid)


def interpolate(trace: SolutionTrace, x: float, t: float):
    """Evaluate (u, u_x, u_xx, u_t) at an arbitrary point of the space-time box.

    Space uses the Hermite interpolant at the two bracketing time levels with
    a linear blend in time.  u_t is the centered difference quotient at
    interior grid times, one-sided at the first/last level, and the interval
    slope between levels.
    """
    grid = trace.grid
    if not 0.0 <= t <= grid.final_time * (1.0 + 1e-12):
        raise ValueError(f"t = {t} outside [0, {grid.final_time}]")
    dt = grid.dt
    n_levels = grid.step_count
    s = t / dt
    j = int(round(s))
    hist = trace.dof_history

    if abs(t - j * dt) <= 1e-12 * grid.final_time and 0 <= j < n_levels:
        u, u_x, u_xx = evaluate_solution(trace.system, hist[j], x)
        if 1 <= j <= n_levels - 2:
            v_dofs = (hist[j + 1] - hist[j - 1]) / (2.0 * dt)
        elif j == 0:
            v_dofs = (hist[1] - hist[0]) / dt
        else:
            v_dofs = (hist[-1] - hist[-2]) / dt
        u_t = evaluate_solution(trace.system, v_dofs, x)[0]
        return u, u_x, u_xx, u_t

    j0 = min(int(s), n_levels - 2)
    theta = s - j0
    lo = evaluate_solution(trace.system, hist[j0], x)
    hi = evaluate_solution(trace.system, hist[j0 + 1], x)
    blend = tuple((1.0 - theta) * a + theta * b for a, b in zip(lo, hi))
    u_t = (hi[0] - lo[0]) / dt
    return blend[0], blend[1], blend[2], u_t


class TraceWriter:
    """Writes the nodal trace of one run as CSV rows ``t, node, u, u_x``, fed
    its history as consecutive blocks of levels of any sizes.

    Every ``decimate``-th level is written, and the last level always.  The
    written levels are formatted up to CHUNK_LEVELS at a time with one ``%``
    template (node labels and the clamped node's zeros baked in, each t
    formatted once) and written in one call, so the writer holds at most one
    such chunk of text, never the file.
    """

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid, decimate: int = 1):
        if decimate < 1:
            raise ValueError("decimate must be >= 1")
        self._times, self._last, self._decimate = grid.times, grid.step_count - 1, decimate
        # joined with the level's t: the clamped node 0, then node i >= 1 with
        # the history columns 2(i-1), 2(i-1)+1
        self._pieces = ["", ", 0, 0, 0\n"] + [f", {node}, %.17g, %.17g\n"
                                             for node in range(1, system.mesh.node_count)]
        self._next = 0   # the level the next block starts at

    def write(self, fh, block: np.ndarray) -> None:
        """Write the levels of ``block`` that belong in the trace; the block
        starting at level 0 also writes the header."""
        lo, step = self._next, self._decimate
        self._next += len(block)
        if lo == 0:
            fh.write("t, node, u, u_x\n")
        rows = np.arange(-lo % step, len(block), step)
        if lo <= self._last < self._next and self._last % step:
            rows = np.append(rows, self._last - lo)
        for k in range(0, len(rows), CHUNK_LEVELS):
            chunk = rows[k:k + CHUNK_LEVELS]
            template = "".join([("%.17g" % t).join(self._pieces)
                                for t in self._times[lo + chunk].tolist()])
            fh.write(template % tuple(block[chunk].ravel().tolist()))


def export_trace_csv(trace: SolutionTrace, path, decimate: int = 1) -> None:
    """Write a stored trace as CSV rows ``t, node, u, u_x`` (see ``TraceWriter``)."""
    writer = TraceWriter(trace.system, trace.grid, decimate)
    with open(path, "w") as fh:
        writer.write(fh, trace.dof_history)
