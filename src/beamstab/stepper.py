"""Implicit time integration of the semi-discrete beam system.

The second-order ODE system ``M u'' + C u' + K u = F(t)`` is advanced with
three-level backward difference quotients

    u'(t_j)  ~ (3 U^j - 4 U^{j-1} + U^{j-2}) / (2 dt)
    u''(t_j) ~ (2 U^j - 5 U^{j-1} + 4 U^{j-2} - U^{j-3}) / dt^2

so each step solves one SPD system whose matrix is factored once per run,
by the process that steps it.  The scheme needs three history levels;
the first two steps come from the trapezoidal rule on the first-order
reformulation, which keeps the global order at two.  The trapezoidal rule
keeps ``M a_k = F_k - C V^k - K U^k`` at every level, so the start carries
no acceleration: it solves

    (2M/dt + C + dt K/2) V^{k+1} = F_k + F_{k+1} + (2M/dt - C - dt K/2) V^k - 2K U^k

with ``U^{k+1} = U^k + dt (V^k + V^{k+1}) / 2``, from the interpolated
initial data.  Its right-hand side, the loads aside, is one product of
``[2M/dt - C - dt K/2 | -2K]`` with ``(V^k, U^k)``.  So a run factors two
matrices, the step's and the start's.

The step matrix is constant (fixed dt), so the loop ``TimeStepper.blocks``
factors it once and repeats only the solve, in place on the new level's
row.  Each step solves for the increment: with the step matrix ``S = 2M/dt^2 + 3C/(2dt) + K`` it solves
``S (U^j - U^{j-1}) = load + H (U^{j-3}, U^{j-2}, U^{j-1})`` and adds
``U^{j-1}``.  ``H = [A3 | A2 | A1 - S]`` is one n x 3n operator with
``A3 = M/dt^2``, ``A2 = -(4M/dt^2 + C/(2dt))`` and
``A1 - S = 3M/dt^2 + C/(2dt) - K``, which folds the mass, the damping, the
stiffness and the three-level stencil into one product per step.  The
kernels are those ``fem`` picks by the system size: for n <= DENSE_MAX_N
H is a dense array and the solve one product with the inverse of S (numpy
alone); above it H is a CSR array and the solve LAPACK ``dpbtrs``'s two
banded triangular solves.  The increment form is the same scheme in exact
arithmetic; it makes the rounding error of the solve scale with the
increment rather than with |U^j|.  An error proportional to |U^j|, made
again every step, biases the run, and the energy-balance residual then
stops falling and grows with M.  The loop evaluates the end loads once over the whole
grid and applies ``H`` to the three previous levels where they already lie
contiguously in its buffer.  The tests check it bitwise against a one-level
step that applies ``H`` to the three levels concatenated.

``blocks`` yields the run in the windows of ``fem.windows``, the one cut
of a history: each block of interior levels with both neighbours.  All
windows live in one buffer of CHUNK_LEVELS + 3 levels, so a caller that
reduces each window as it comes (``diagnostics.EnergyAccumulator``,
``TraceWriter``) holds O(CHUNK_LEVELS n) of the run, not O(N n), and the
loop touches no fresh memory after its first block.  Each window is
checked for non-finite values before it is yielded, so a run that blows up
stops there and reports the first bad time.  ``run`` copies every window
into a ``SolutionTrace`` for library callers that need the whole history
at once; no CLI command stores one.  ``export_trace_csv`` and
``diagnostics.energy`` feed a stored history through the same windows.

``forked_blocks`` yields the same windows, stepped by a forked child
process while the caller reduces the windows before them, so the step loop
and the reduction overlap.  The CLI's one rule, ``cli._steps_ahead``, takes
it when the process can fork, may use a second CPU and was not started by
``multiprocessing``: a sweep's pool worker steps in-process.  The child
runs ``blocks()`` and sends each window's first level and bytes through one
``multiprocessing.connection`` pipe, sized 1 MiB where the platform allows
(a few windows at M = 321); the caller reads each window into one reused
buffer.  Each window holds the bytes ``blocks()`` made, so a caller
computes bitwise the same results either way.  An exception in the child
(a blow-up, a failed factorization) is sent through the pipe and raised
in the caller with its type and text, after the windows before it; a
child killed by a signal is reaped, and ChildProcessError names it.  The
child is forked, not spawned, because it steps the system the caller
already assembled, with the caller's imports.  It factors the step
matrices itself, so the caller, which only reduces, never loads scipy (nor
does the child for n <= DENSE_MAX_N).  It leaves through ``os._exit``, so
it flushes none of the caller's buffers and runs none of its exit hooks.

``TraceWriter`` writes the trace window by window, in pieces of whole
levels that hold at most ``_g17.CHUNK`` numbers (or one level).  One ``_g17.fields`` call turns a piece's t
values (each formatted once) and DOF values into the exact bytes of
``%.17g`` as fixed-width, NUL-padded rows; the rows are laid out with the
node labels and separators as one uint8 matrix and written in one call
with the padding removed.  Its output is byte-identical to a per-row
``%.17g`` writer.
"""

from __future__ import annotations

import functools
import os
import signal
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .fem import (
    CHUNK_LEVELS,
    Mesh,
    SemiDiscreteSystem,
    assemble,
    block_row,
    combine,
    interpolate_profile,
    windows,
)

__all__ = ["TimeGrid", "SolutionTrace", "TimeStepper", "TraceWriter", "run",
           "export_trace_csv"]

# forked_blocks asks for pipes of this size, so the child can run a few
# windows ahead of the caller (one window is 338 KB at M = 321, and Linux's
# default pipe holds 64 KiB); 1 MiB is Linux's default pipe-max-size
_PIPE_BYTES = 1 << 20


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


class TimeStepper:
    """Steps one (system, grid) pair.

    The iteration matrices are built on first use, by the first
    ``startup`` or ``blocks`` call, not by the constructor: a run
    stepped by ``forked_blocks`` builds them in its child, so the caller
    never loads scipy.  That first call raises LinAlgError if a matrix to
    factor is not positive definite or not finite.
    """

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid):
        self.system = system
        self.grid = grid

    @functools.cached_property
    def _operators(self) -> SimpleNamespace:
        """The checked factors (``BandedSymmetricMatrix.factor``) of the
        step and startup matrices, the history operator H and the
        startup's block row."""
        dt = self.grid.dt
        m, c, k = self.system.mass, self.system.damping, self.system.stiffness
        return SimpleNamespace(
            step=combine([(2.0 / dt**2, m), (1.5 / dt, c), (1.0, k)]).factor(),
            # step j solves for U^j - U^{j-1}, whose right-hand side is
            # load + H (U^{j-3}, U^{j-2}, U^{j-1}) with H = [A3 | A2 | A1 - S]
            history=block_row([
                combine([(1.0 / dt**2, m)]),
                combine([(-4.0 / dt**2, m), (-0.5 / dt, c)]),
                combine([(3.0 / dt**2, m), (0.5 / dt, c), (-1.0, k)])]),
            startup=combine([(2.0 / dt, m), (1.0, c), (0.5 * dt, k)]).factor(),
            # the startup's right-hand side is loads + [2M/dt - C - dt K/2 | -2K] (V^k, U^k)
            startup_row=block_row([
                combine([(2.0 / dt, m), (-1.0, c), (-0.5 * dt, k)]),
                combine([(-2.0, k)])]))

    def startup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First three DOF vectors: the interpolated initial displacement and
        two trapezoidal steps from it and the interpolated initial velocity."""
        sys_, grid = self.system, self.grid
        dt = grid.dt
        ops = self._operators
        initial = sys_.problem.initial
        u = interpolate_profile(initial.u0, sys_.mesh)
        v = interpolate_profile(initial.u1, sys_.mesh)
        end_loads = sys_.end_load(grid.times[:3])
        levels = [u]
        for k in range(2):
            v_new = ops.startup_row @ np.concatenate([v, u])
            v_new[-2:] += end_loads[k] + end_loads[k + 1]
            ops.startup.solve_in_place(v_new)
            u = u + 0.5 * dt * (v + v_new)
            v = v_new
            levels.append(u)
        return tuple(levels)

    def blocks(self):
        """Integrate over the whole grid, yielding ``(first, window)`` per
        window ``(first, stop)`` of ``fem.windows``: ``window`` holds the
        levels ``first .. stop - 1``, so consecutive windows share two levels
        and the last one ends at level N-1.

        Every window is a view of one buffer of CHUNK_LEVELS + 3 rows, whose
        first three rows carry the last three levels of the previous window,
        so a window is valid only until the next one is requested.  It is
        checked for non-finite values before it is yielded; a run that blows
        up raises FloatingPointError naming the first bad time and yields no
        window that reaches it.
        """
        sys_, grid = self.system, self.grid
        n = sys_.n
        end_loads = sys_.end_load(grid.times)
        ops = self._operators
        history, solve = ops.history, ops.step.solve_in_place
        load = np.zeros(n)
        buf = np.empty((CHUNK_LEVELS + 3, n))  # level j of window [first, stop) in row j-first+1
        buf[1:4] = self.startup()
        for first, stop in windows(grid.step_count):
            if first > 0:
                buf[:3] = buf[-3:]
            # a run that blows up is reported below, once, as the banded
            # kernels do, not also as numpy's warnings from the dense ones
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(max(first + 2, 3), stop):
                    row = j - first + 1
                    load[-2:] = end_loads[j]
                    new = buf[row]
                    # rows row-3..row-1 are U^{j-3}, U^{j-2}, U^{j-1}, one contiguous vector
                    np.add(load, history @ buf[row - 3:row].reshape(-1), out=new)
                    solve(new)
                    new += buf[row - 1]
            window = buf[1:stop - first + 1]
            bad = ~np.isfinite(window).all(axis=1)
            if bad.any():
                t = grid.times[first + int(np.argmax(bad))]
                raise FloatingPointError(
                    f"time integration produced non-finite values at t = {t:.12g}")
            yield first, window

    def forked_blocks(self):
        """Yield exactly what ``blocks()`` yields, under the same contract (a
        window is valid until the next one is requested), with the stepping
        done in a forked child process that runs ahead of the caller by as
        many windows as the pipe between them holds.

        An exception ``blocks()`` raises in the child is raised here, with
        its type and text, once the windows before it have been taken.  A
        child that dies before its last window (killed by a signal) is
        reaped, and ChildProcessError names the signal from its wait status.
        Closing the generator early (or an exception in the caller) closes
        the pipe, so the child stops at its next send, and reaps it.
        """
        import fcntl
        from multiprocessing.connection import Pipe   # off the import of a one-CPU run

        receiver, sender = Pipe(duplex=False)
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            try:
                fcntl.fcntl(sender.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except OSError:
                pass   # above the limit of this process: the pipe keeps its size
        pid = os.fork()
        if pid == 0:
            # the child: leave without the parent's clean-up, atexit hooks or
            # buffered output, whatever happens (a send to a parent that is
            # gone raises BrokenPipeError, which ends up here too)
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles ^C
                receiver.close()
                try:
                    for first, window in self.blocks():
                        sender.send(first)
                        sender.send_bytes(window)
                except Exception as exc:
                    sender.send(exc)
                else:
                    sender.send(None)
            finally:
                os._exit(0)
        sender.close()
        buf = np.empty((CHUNK_LEVELS + 2, self.system.n))   # the longest window
        ended = False   # by the child's end marker or exception
        try:
            while (first := receiver.recv()) is not None and not isinstance(first, Exception):
                # recv_bytes_into sizes a buffer by its first dimension
                count = receiver.recv_bytes_into(buf.reshape(-1)) // buf[0].nbytes
                yield first, buf[:count]
            ended = True
        except (EOFError, OSError):   # the pipe ended, at or in a message: the child is gone
            pass
        finally:
            receiver.close()
            status = os.waitpid(pid, 0)[1]
        if not ended:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError("the stepping process " + (
                f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                else f"exited with status {code}") + " before its last window")
        if first is not None:
            raise first

    def run(self) -> SolutionTrace:
        """Integrate over the whole grid and keep every window of ``blocks()``."""
        history = np.empty((self.grid.step_count, self.system.n))
        for first, window in self.blocks():
            history[first:first + len(window)] = window
        return SolutionTrace(self.grid, history, self.system)


def run(problem, mesh: Mesh, grid: TimeGrid) -> SolutionTrace:
    """Assemble and integrate in one call; deterministic for fixed inputs."""
    return TimeStepper(assemble(problem, mesh), grid).run()


class TraceWriter:
    """Writes the nodal trace of one run as CSV rows ``t, node, u, u_x``, fed
    its history one window of ``fem.windows`` at a time, in order (the
    windows of ``TimeStepper.blocks()``, or those of a stored history).

    Every ``decimate``-th level is written, and the last level always.  The
    written levels of a window are cut into pieces of whole levels, as many
    as ``_g17.CHUNK`` numbers hold (one level at least); each piece's t and
    DOF values go through one ``_g17.fields`` call, its lines are laid out
    as one uint8 matrix (t, the node's label, u, u_x and the separators,
    NUL-padded) and written in one call with the padding removed.  So the
    writer holds one piece's text, never the file.
    """

    def __init__(self, system: SemiDiscreteSystem, grid: TimeGrid, decimate: int = 1):
        from . import _g17   # loaded by the runs that write a trace, not by the CLI's import

        if decimate < 1:
            raise ValueError("decimate must be >= 1")
        self._times, self._last, self._decimate = grid.times, grid.step_count - 1, decimate
        self._next = 0   # the first level of the next window
        # one level's lines but their numbers: t, the label, u, ", ", u_x,
        # "\n"; the clamped node 0's label carries its zeros and line end,
        # and node i >= 1 takes the history columns 2(i-1), 2(i-1)+1
        nodes, width = system.mesh.node_count, _g17.WIDTH
        self._fields, self._text, self._width = _g17.fields, _g17.text, width
        self._per = max(1, _g17.CHUNK // (system.n + 1))   # levels a piece holds
        labels = [b", 0, 0, 0\n"] + [b", %d, " % node for node in range(1, nodes)]
        label = max(map(len, labels))
        self._u, self._u_x = width + label, 2 * width + label + 2
        self._lines = np.zeros((nodes, 3 * width + label + 3), np.uint8)
        for node, text in enumerate(labels):
            self._lines[node, width:width + len(text)] = np.frombuffer(text, np.uint8)
        self._lines[1:, self._u_x - 2:self._u_x] = np.frombuffer(b", ", np.uint8)
        self._lines[1:, -1] = ord("\n")

    def write(self, fh, window: np.ndarray, first: int) -> None:
        """Write the levels of the next window, ``first .. first + len(window) - 1``,
        that belong in the trace and were not in the window before (all of
        the first window, which also writes the header)."""
        if first != self._next:
            raise ValueError(f"window at level {first} is not the next one, at level {self._next}")
        self._next = first + len(window) - 2
        lo, step = first + 2 if first else 0, self._decimate
        block = window[lo - first:]
        if lo == 0:
            fh.write("t, node, u, u_x\n")
        chosen = np.arange(-lo % step, len(block), step)
        if first + len(window) > self._last and self._last % step:
            chosen = np.append(chosen, len(block) - 1)
        width, u, u_x, per = self._width, self._u, self._u_x, self._per
        for start in range(0, len(chosen), per):
            levels = chosen[start:start + per]
            count = len(levels)
            text = self._fields(np.concatenate([self._times[lo + levels], block[levels].ravel()]))
            values = text[count:].reshape(count, -1, 2, width)
            lines = np.empty((count,) + self._lines.shape, np.uint8)
            lines[:] = self._lines
            lines[:, :, :width] = text[:count, None]
            lines[:, 1:, u:u + width] = values[:, :, 0]
            lines[:, 1:, u_x:u_x + width] = values[:, :, 1]
            fh.write(self._text(lines).decode("ascii"))


def export_trace_csv(trace: SolutionTrace, path, decimate: int = 1) -> None:
    """Write a stored trace as CSV rows ``t, node, u, u_x`` (see ``TraceWriter``)."""
    writer = TraceWriter(trace.system, trace.grid, decimate)
    with open(path, "w") as fh:
        for first, stop in windows(trace.grid.step_count):
            writer.write(fh, trace.dof_history[first:stop], first)
