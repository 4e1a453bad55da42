"""Command-line front end: problem files in, traces/energies/bounds out.

    beamstab validate    SOURCE
    beamstab simulate    SOURCE [STEP] [--lambda L] [--out DIR] [--decimate K]
    beamstab verify      --preset NAME [STEP] [--out DIR]
    beamstab convergence SOURCE [STEP] [--out DIR] [--levels K]
    beamstab sweep       SOURCE [STEP] [--lambda L] [--out DIR]
                         --param P --values V1,V2,...
    beamstab bounds      SOURCE [STEP] [--lambda L] [--out DIR]

    SOURCE = --preset NAME | --problem FILE
    STEP   = [--nodes M] [--dt H | --ratio R]

Each command accepts only the options it reads, and the parser checks
their ranges, so an option a command would ignore is a usage error.
``main`` loads and validates the problem, then builds its mesh and time
grid once (dt = h_x / R unless --dt is given) for the command.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 usage
error (a grid or mesh too large to allocate, or an artifact that cannot be
written, too), 4 a worker process died (the stepping child or a sweep
worker, killed by a signal).  Identical inputs produce byte-identical
files, whatever the BLAS thread count, the worker count and where a run
steps, on one build of numpy and scipy (not across CPU architectures or
library builds).  ``sweep`` runs its members in forked worker processes,
at most one per CPU this process may run on (in-process when only one
would run).

Every command that runs the beam feeds each window of
``TimeStepper.blocks()`` to its reducers (the energy diagnostics, the trace
writer, the error reducer of ``verify`` and ``convergence``), so it holds
O(N + CHUNK_LEVELS n) of a run of N levels and n DOFs, never the O(N n)
history.  Every artifact of every command is written under a temporary
name and renamed into place only when the run succeeds.  ``_steps_ahead``
decides where every run steps: in a forked child (``forked_blocks``),
while this process reduces the windows, if this process can fork, may use
a second CPU and was not started by ``multiprocessing`` (a sweep's pool
worker, which fills its CPU, was); in-process otherwise.  The windows are
the same bytes either way, and so are the artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics, problem as problem_mod, stepper
from .fem import FieldKernel, Mesh, assemble, nodal, velocities
from .problem import BeamProblem, load_problem, preset, validate

__all__ = ["main"]

SWEEP_PARAMS = ("k_r", "k_a", "k_d", "k_v", "mu_scale")


class _UsageError(Exception):
    pass


class _InvalidProblem(Exception):
    """A problem that fails ``validate``; the message is the report (exit 1)."""


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}; got {value}")
        return value

    return integer


def positive_finite(text: str) -> float:
    """An argparse type: a positive, finite float."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite; got {value:g}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="beamstab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "simulate", "verify", "convergence", "sweep", "bounds"):
        sub = subs.add_parser(name)
        if name == "verify":   # the exact solutions are attached to presets
            sub.add_argument("--preset", required=True, help="named example problem")
        else:
            source = sub.add_mutually_exclusive_group(required=True)
            source.add_argument("--preset", help="named example problem")
            source.add_argument("--problem", help="JSON problem file")
        if name == "validate":
            continue
        sub.add_argument("--nodes", type=_at_least(3), default=41, help="mesh node count M")
        step = sub.add_mutually_exclusive_group()
        step.add_argument("--dt", type=positive_finite, help="time step")
        step.add_argument("--ratio", type=positive_finite, default=40.0,
                          help="time step as h_x / ratio when --dt is absent")
        if name in ("simulate", "sweep", "bounds"):
            sub.add_argument("--lambda", dest="lam", type=float,
                             help="Lyapunov penalty weight override")
        sub.add_argument("--out", default=".", help="output directory")
        if name == "simulate":
            sub.add_argument("--decimate", type=_at_least(1), default=1,
                             help="keep every k-th time level in the trace CSV")
        if name == "convergence":
            sub.add_argument("--levels", type=_at_least(3), default=3,
                             help="number of refinement levels")
        if name == "sweep":
            sub.add_argument("--param", required=True, choices=SWEEP_PARAMS)
            sub.add_argument("--values", required=True,
                             help="comma-separated nonnegative values")
    return parser


def _load(args) -> BeamProblem:
    if args.preset is not None:
        try:
            return preset(args.preset)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    try:
        return load_problem(args.problem)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot read problem file {args.problem}: {exc}") from None


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(header, rows, path) -> None:
    """Write a small CSV table, the header and then each row, cells joined
    by ", ": strings as they are, None as ``nan``, numbers as ``%.17g``."""
    with open(path, "w") as fh:
        for row in (header, *rows):
            fh.write(", ".join(cell if isinstance(cell, str)
                               else "nan" if cell is None else f"{cell:.17g}"
                               for cell in row) + "\n")


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _steps_ahead() -> bool:
    """Where a run steps: in a forked child when this process can fork, a
    second CPU is there for the child while this one reduces, and
    ``multiprocessing`` did not start this process (a worker of the sweep's
    pool, which already fills the CPUs); in-process otherwise."""
    if not (hasattr(os, "fork") and _usable_cpus() > 1):
        return False
    import multiprocessing   # off the import of a one-CPU run

    return multiprocessing.parent_process() is None


def _feed(system, grid: stepper.TimeGrid, consumers) -> None:
    """Integrate one run and feed each window of levels to every consumer
    ``f(window, first)``; the DOF history is never stored.  The windows are
    the same bytes wherever ``_steps_ahead`` steps the run."""
    steps = stepper.TimeStepper(system, grid)
    stream = steps.forked_blocks() if _steps_ahead() else steps.blocks()
    # closed here, not by the collector, if this loop fails: that reaps the child
    with contextlib.closing(stream):
        for first, window in stream:
            for consume in consumers:
                consume(window, first)


def _streamed_energy(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, lam=None,
                     trace_file=None, decimate: int = 1):
    """The energy diagnostics of one run, whose windows also go to the trace
    writer, keeping every ``decimate``-th level, given an open ``trace.csv``."""
    system = assemble(prob, mesh)
    acc = diagnostics.EnergyAccumulator(system, grid, lam=lam)
    consumers = [acc.add]
    if trace_file is not None:
        writer = stepper.TraceWriter(system, grid, decimate=decimate)
        consumers.insert(0, functools.partial(writer.write, trace_file))
    _feed(system, grid, consumers)
    return acc.result()


class _ErrorAccumulator:
    """Max and L2 errors of one run's nodal u, u_x, u_t and u_xx against an
    exact solution, fed the run's windows of levels as
    ``diagnostics.EnergyAccumulator`` is.

    u and u_x are compared on every level, each once.  u_t (the centered
    rows of ``fem.velocities``) and u_xx are compared on the interior
    levels; u_xx is the Hermite curvature at the nodes (left-element limits,
    the right one at x = 0), the curvature the energy diagnostics integrate.
    Only running maxima of |error| and sums of squares are kept.
    """

    QUANTITIES = ("u", "u_x", "u_t", "u_xx")

    def __init__(self, exact, system, grid: stepper.TimeGrid):
        self._exact, self._grid = exact, grid
        self._mesh = system.mesh
        self._kernel = FieldKernel(self._mesh.h, (0.0, 1.0))
        self.max = dict.fromkeys(self.QUANTITIES, 0.0)
        self._squares = dict.fromkeys(self.QUANTITIES, 0.0)
        self._next = 0   # the first level of the next window

    def _take(self, name: str, err: np.ndarray) -> None:
        self.max[name] = max(self.max[name], float(np.max(np.abs(err))))
        self._squares[name] += float(np.sum(err**2))

    def add(self, window: np.ndarray, first: int) -> None:
        if first != self._next:
            raise ValueError(f"window at level {first} is not the next one, at level {self._next}")
        self._next = first + len(window) - 2
        exact, times, x = self._exact, self._grid.times, self._mesh.nodes
        stop = first + len(window)
        new = window[2:] if first else window   # the levels not in the window before
        t = times[stop - len(new):stop, None]
        self._take("u", nodal(new, 0) - exact.u(x, t))
        self._take("u_x", nodal(new, 1) - exact.u_x(x, t))
        t = times[first + 1:stop - 1, None]
        ut = velocities(window, self._grid.dt)
        self._take("u_t", nodal(ut, 0) - exact.u_t(x, t))
        curv = self._kernel.curvatures(window[1:-1])
        self._take("u_xx", np.concatenate([curv[:, :1, 0], curv[:, :, 1]], axis=1)
                   - exact.u_xx(x, t))

    def rows(self) -> list[tuple[str, float, float]]:
        """``(quantity, max error, L2 error over the space-time grid)``."""
        cell = self._mesh.h * self._grid.dt
        return [(name, self.max[name], math.sqrt(self._squares[name] * cell))
                for name in self.QUANTITIES]


def _streamed_errors(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid,
                     exact) -> _ErrorAccumulator:
    """The errors of one run against ``exact``."""
    system = assemble(prob, mesh)
    errors = _ErrorAccumulator(exact, system, grid)
    _feed(system, grid, [errors.add])
    return errors


@contextlib.contextmanager
def _published(out_dir: str, names):
    """Temporary paths in ``out_dir``, which is made here with its missing
    parents, to write ``names`` under; a path that cannot be made a
    directory (a file, a path under one, no name) is a usage error.  Each
    temporary is created here, and a name that is a directory refused,
    before the block runs, so a run steps only once its artifacts can be
    written; either failure is raised by the artifact's name.  The paths
    are renamed into place if the block succeeds.  If anything fails they
    are removed, and so are the directories made here, deepest first, as
    far as they are empty; one that existed before stays.  So a run that
    fails part-way leaves no partial artifact and no empty directory."""
    made, head = [], os.path.abspath(out_dir)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    tmp = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise _UsageError(
                f"cannot make the output directory {out_dir!r}: {exc.strerror}") from None
        for name, path in tmp.items():
            dest = os.path.join(out_dir, name)
            if os.path.isdir(dest):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), dest)
            try:
                open(path, "w").close()
            except OSError as exc:   # reported by the artifact's name, not the temporary's
                raise OSError(exc.errno, exc.strerror, dest) from None
        yield tmp
        for name, path in tmp.items():
            os.replace(path, os.path.join(out_dir, name))
    except BaseException:
        for path in tmp.values():   # those not renamed; a directory in the way stays
            with contextlib.suppress(OSError):
                os.remove(path)
        for made_dir in made:   # one a sweep member wrote to is not empty, nor its parents
            with contextlib.suppress(OSError):
                os.rmdir(made_dir)
        raise


def _simulate_pipeline(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, lam,
                       out_dir: str, decimate: int = 1) -> dict:
    """Run one simulation and write trace.csv, energy.csv, bounds.json."""
    with _published(out_dir, ("trace.csv", "energy.csv", "bounds.json")) as paths:
        with open(paths["trace.csv"], "w") as fh:
            energy_trace = _streamed_energy(prob, mesh, grid, lam, fh, decimate)
        diagnostics.export_energy_csv(energy_trace, paths["energy.csv"])
        payload = bounds_mod.bound_report(prob, energy_trace)
        _write_json(payload, paths["bounds.json"])
    return {"energy": energy_trace, "bounds": payload}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, args) -> int:
    result = _simulate_pipeline(prob, mesh, grid, args.lam, args.out, args.decimate)
    e = result["energy"]
    print(f"wrote trace.csv, energy.csv, bounds.json to {args.out}")
    print(f"E(0) = {e.E0:.6g}, E(T-) = {e.E[-1]:.6g}"
          + (", forced run: decay guarantees informational only" if e.forced else ""))
    return 0


def cmd_verify(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, args) -> int:
    try:
        exact = problem_mod.exact_solution(args.preset)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _published(args.out, ("errors.csv",)) as paths:
        rows = _streamed_errors(prob, mesh, grid, exact).rows()
        _write_table(("quantity", "max_error", "l2_error"), rows, paths["errors.csv"])
    for name, mx, l2 in rows:
        print(f"{name:5s} max {mx:.3e}  l2 {l2:.3e}")
    return 0


def _order(coarse: float, fine: float) -> float:
    """The observed order ``log2(coarse / fine)`` of one refinement; nan
    unless both values are positive (a beam at rest has nothing to halve)."""
    return math.log2(coarse / fine) if coarse > 0 and fine > 0 else float("nan")


def cmd_convergence(prob: BeamProblem, mesh: Mesh, dt: float, args) -> int:
    exact = None
    if args.preset is not None:
        with contextlib.suppress(ValueError):   # a preset without an exact solution
            exact = problem_mod.exact_solution(args.preset)
    if exact is None and prob.has_forcing:
        raise _UsageError(
            "convergence needs an exact solution (test_NE1) or homogeneous forcing")

    rows = []   # at level k > 0, rows[-1] is level k - 1 of the same study
    with _published(args.out, ("convergence.csv",)) as paths:
        if exact is not None:
            # temporal error study at fixed mesh
            for k in range(args.levels):
                grid = stepper.TimeGrid.from_dt(prob.final_time, dt / 2**k)
                err = _streamed_errors(prob, mesh, grid, exact).max["u"]
                order = _order(rows[-1][4], err) if k else float("nan")
                rows.append(("temporal_u_error", k, mesh.h, grid.dt, err, order))

        if not prob.has_forcing:
            # energy-balance residual under simultaneous space-time refinement
            for k in range(args.levels):
                fine = Mesh(prob.length, (mesh.node_count - 1) * 2**k + 1)
                grid = stepper.TimeGrid.from_dt(prob.final_time, dt / 2**k)
                res = diagnostics.identity_residual(_streamed_energy(prob, fine, grid))
                order = _order(rows[-1][4], res) if k else float("nan")
                rows.append(("identity_residual", k, fine.h, grid.dt, res, order))

        _write_table(("study", "level", "h_x", "dt", "value", "order"), rows,
                     paths["convergence.csv"])
    for study, k, _, _, value, order in rows:
        print(f"{study} level {k}: value {value:.3e} order {order:.2f}")
    return 0


def _with_parameter(prob: BeamProblem, param: str, value: float) -> BeamProblem:
    if param == "mu_scale":
        return dataclasses.replace(prob, mu=prob.mu.scaled(value))
    return dataclasses.replace(
        prob, boundary=dataclasses.replace(prob.boundary, **{param: value}))


def _member_dir(param: str, value: float) -> str:
    return f"{param}_{value:g}"


def _sweep_member(base: BeamProblem, param: str, mesh: Mesh, grid: stepper.TimeGrid, lam,
                  out_dir: str, value: float) -> tuple:
    """Run one sweep member, write its artifacts and return its sweep.csv
    row, the columns after ``param``."""
    result = _simulate_pipeline(_with_parameter(base, param, value), mesh, grid, lam,
                                os.path.join(out_dir, _member_dir(param, value)))
    e, b = result["energy"], result["bounds"]
    return (value, b["beta0"], b["beta1"], b["lambda_max"], b["lambda"], b["M_d"], b["sigma"],
            e.E0, float(e.E[-1] / e.E0) if e.E0 else 0.0,
            float(e.j_mu[-1]), float(e.j_a[-1]), float(e.j_v[-1]))


def _remove_partial_members(out_dir: str, dirs) -> None:
    """Remove the temporary files that killed sweep workers left in the
    member directories ``dirs``, which run no clean-up of their own, and the
    member directories that are then empty."""
    for member_dir in dirs:
        path = os.path.join(out_dir, member_dir)
        with contextlib.suppress(OSError):   # a member not started made no directory
            for name in os.listdir(path):
                if name.startswith(".") and name.endswith(".tmp"):
                    os.remove(os.path.join(path, name))
            os.rmdir(path)   # if empty


def cmd_sweep(base: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, args) -> int:
    param = args.param
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad --values: {exc}") from None
    if not values:
        raise _UsageError("--values is empty")
    if any(v < 0 for v in values):
        raise _UsageError(f"negative {param} values are not admissible")
    dirs = [_member_dir(param, v) for v in values]
    for d in dirs:
        if dirs.count(d) > 1:  # members run at once: both would write its files
            raise _UsageError(f"two --values share the member directory {d}")

    # every member is checked before any starts, so an invalid one leaves no
    # member directory behind; so is --lambda, wherever no run can make it
    # admissible (a damper-only member's window needs its run, which checks it)
    members = [_with_parameter(base, param, v) for v in values]
    for v, member in zip(values, members):
        report = validate(member)
        if not report.ok:
            raise _InvalidProblem(f"{param} = {v:g}: invalid problem\n{report}")
    for member in members:
        bounds_mod.check_explicit_penalty(member, args.lam)

    # Members share nothing, so they run in worker processes.  ``fork`` keeps
    # this process's imports (a ``spawn`` worker would import numpy and the
    # package again; a worker imports scipy only for a member above
    # fem.DENSE_MAX_N DOFs); the only other threads are OpenBLAS's, which it
    # shuts down before a fork.  pool.map re-raises a member's exception
    # with its own type, and the members not yet started are then
    # cancelled.  The pool fills the CPUs, so its members step in-process
    # (``_steps_ahead``).  The output directory is made here, before any
    # member starts, so a failed member removes only its own directory.
    member = functools.partial(_sweep_member, base, param, mesh, grid, args.lam, args.out)
    workers = min(len(values), _usable_cpus())
    with _published(args.out, ("sweep.csv",)) as paths:
        if workers > 1 and hasattr(os, "fork"):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                try:
                    summaries = list(pool.map(member, values))   # in value order
                finally:
                    pool.shutdown(cancel_futures=True)   # every worker is joined
            except BrokenProcessPool as exc:   # a worker died, killed by a signal
                _remove_partial_members(args.out, dirs)
                raise ChildProcessError(f"a sweep worker died: {exc}") from None
        else:
            summaries = list(map(member, values))
        _write_table(("param", "value", "beta0", "beta1", "lambda_max", "lambda", "M_d",
                      "sigma", "E0", "E_final_over_E0", "j_mu", "j_a", "j_v"),
                     [(param, *row) for row in summaries], paths["sweep.csv"])
    print(f"wrote {os.path.join(args.out, 'sweep.csv')} ({len(values)} runs)")
    return 0


def cmd_bounds(prob: BeamProblem, mesh: Mesh, grid: stepper.TimeGrid, args) -> int:
    try:
        regime = bounds_mod.classify_regime(prob)
    except ValueError as exc:
        print(f"no decay certificate: {exc}", file=sys.stderr)
        return 1

    with _published(args.out, ("bounds.json",)) as paths:
        # the damper-only window depends on the solution: run the simulation
        energy_trace = (_streamed_energy(prob, mesh, grid, args.lam) if regime == "theorem2"
                        else None)
        payload = bounds_mod.bound_report(prob, energy_trace, args.lam)
        _write_json(payload, paths["bounds.json"])
    if payload.get("note"):
        print(f"beta0 = {payload['beta0']:.6g}, beta1 = {payload['beta1']:.6g}; "
              f"no certificate: {payload['note']}")
    else:
        print(f"regime {payload['regime']}: beta0 = {payload['beta0']:.6g}, "
              f"beta1 = {payload['beta1']:.6g}, lambda_max = {payload['lambda_max']:.6g}, "
              f"M_d = {payload['M_d']:.6g}, sigma = {payload['sigma']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        prob = _load(args)
        report = validate(prob)
        if args.command == "validate":
            print(report)
            return 0 if report.ok else 1
        if not report.ok:
            raise _InvalidProblem(str(report))
        mesh = Mesh(prob.length, args.nodes)
        dt = mesh.h / args.ratio if args.dt is None else args.dt
        if args.command == "convergence":
            return cmd_convergence(prob, mesh, dt, args)
        command = {"simulate": cmd_simulate, "verify": cmd_verify, "sweep": cmd_sweep,
                   "bounds": cmd_bounds}[args.command]
        return command(prob, mesh, stepper.TimeGrid.from_dt(prob.final_time, dt), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except _InvalidProblem as exc:
        print(exc, file=sys.stderr)
        return 1
    except ChildProcessError as exc:
        print(f"process failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:   # an artifact that cannot be written (ChildProcessError is one too)
        print(f"usage error: cannot write: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:   # a grid or mesh too large to allocate, here or in a worker
        print(f"usage error: not enough memory: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so numerics are caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
