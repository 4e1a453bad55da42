"""Command-line front end: problem files in, traces/energies/bounds out.

    beamstab <validate|simulate|verify|convergence|sweep|bounds>
             [--preset NAME | --problem FILE] [--nodes M]
             [--dt H | --ratio R] [--lambda L] [--out DIR] ...

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 usage
error.  Outputs are deterministic: identical inputs produce byte-identical
files.  ``sweep`` runs its members in forked worker processes, at most one
per CPU this process may run on (in-process when only one would run); its
outputs are byte-identical whatever the worker count.

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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics, problem as problem_mod, stepper
from .fem import FieldKernel, Mesh, assemble, nodal, velocities
from .problem import BeamProblem, load_problem, preset, validate

__all__ = ["main", "RunConfig"]

SWEEP_PARAMS = ("k_r", "k_a", "k_d", "k_v", "mu_scale")


class _UsageError(Exception):
    pass


class _InvalidProblem(Exception):
    """A problem that fails ``validate``; the message is the report (exit 1)."""


@dataclass
class RunConfig:
    """Resolved run options shared by all commands."""

    source: str                  # preset name or file path
    is_preset: bool
    nodes: int = 41
    dt: float | None = None
    ratio: float = 40.0          # dt = h_x / ratio when dt not given
    out_dir: str = "."
    decimate: int = 1
    lam: float | None = None

    def resolve_dt(self, prob: BeamProblem) -> float:
        if self.dt is not None:
            return self.dt
        h_x = prob.length / (self.nodes - 1)
        return h_x / self.ratio

    def grid(self, prob: BeamProblem) -> stepper.TimeGrid:
        return stepper.TimeGrid.from_dt(prob.final_time, self.resolve_dt(prob))

    def mesh(self, prob: BeamProblem) -> Mesh:
        return Mesh(prob.length, self.nodes)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub):
    sub.add_argument("--preset", help="named example problem")
    sub.add_argument("--problem", help="JSON problem file")
    sub.add_argument("--nodes", type=int, default=41, help="mesh node count M (>= 3)")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--ratio", type=float,
                     help="time step as h_x / ratio (default 40 when --dt absent)")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="Lyapunov penalty weight override")
    sub.add_argument("--out", default=".", help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="beamstab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "simulate", "verify", "convergence", "sweep", "bounds"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "simulate":
            sub.add_argument("--decimate", type=int, default=1,
                             help="keep every k-th time level in the trace CSV")
        if name == "convergence":
            sub.add_argument("--levels", type=int, default=3,
                             help="number of refinement levels (>= 3)")
        if name == "sweep":
            sub.add_argument("--param", required=True, choices=SWEEP_PARAMS)
            sub.add_argument("--values", required=True,
                             help="comma-separated nonnegative values")
    return parser


def _config_from_args(args) -> RunConfig:
    if (args.preset is None) == (args.problem is None):
        raise _UsageError("give exactly one of --preset or --problem")
    if args.dt is not None and args.ratio is not None:
        raise _UsageError("give at most one of --dt and --ratio")
    if args.nodes < 3:
        raise _UsageError("--nodes must be >= 3")
    if getattr(args, "decimate", 1) < 1:
        raise _UsageError("--decimate must be >= 1")
    for flag, value in (("--dt", args.dt), ("--ratio", args.ratio)):
        if value is not None and not (0.0 < value < math.inf):
            raise _UsageError(f"{flag} must be positive and finite; got {value:g}")
    return RunConfig(
        source=args.preset or args.problem,
        is_preset=args.preset is not None,
        nodes=args.nodes,
        dt=args.dt,
        ratio=RunConfig.ratio if args.ratio is None else args.ratio,
        out_dir=args.out,
        decimate=getattr(args, "decimate", 1),
        lam=args.lam,
    )


def _load(config: RunConfig) -> BeamProblem:
    if config.is_preset:
        try:
            return preset(config.source)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    try:
        return load_problem(config.source)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot read problem file {config.source}: {exc}") from None


def _load_valid(config: RunConfig) -> BeamProblem:
    """The configured problem; raises _InvalidProblem if ``validate`` fails."""
    prob = _load(config)
    report = validate(prob)
    if not report.ok:
        raise _InvalidProblem(str(report))
    return prob


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


def _streamed_energy(prob: BeamProblem, config: RunConfig, trace_file=None):
    """The energy diagnostics of the configured run, whose windows also go
    to the trace writer given an open ``trace.csv``."""
    system, grid = assemble(prob, config.mesh(prob)), config.grid(prob)
    acc = diagnostics.EnergyAccumulator(system, grid, lam=config.lam)
    consumers = [acc.add]
    if trace_file is not None:
        writer = stepper.TraceWriter(system, grid, decimate=config.decimate)
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


def _streamed_errors(prob: BeamProblem, config: RunConfig, exact) -> _ErrorAccumulator:
    """The errors of the configured run against ``exact``."""
    system, grid = assemble(prob, config.mesh(prob)), config.grid(prob)
    errors = _ErrorAccumulator(exact, system, grid)
    _feed(system, grid, [errors.add])
    return errors


@contextlib.contextmanager
def _published(out_dir: str, names):
    """Temporary paths in ``out_dir``, which is made here with its missing
    parents, to write ``names`` under; a path that cannot be made a
    directory (a file, a path under one, no name) is a usage error.  The
    paths are renamed into place if the block succeeds.  If it fails they
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
        yield tmp
    except BaseException:
        for path in tmp.values():   # if written at all
            with contextlib.suppress(OSError):
                os.remove(path)
        for made_dir in made:   # one a sweep member wrote to is not empty, nor its parents
            with contextlib.suppress(OSError):
                os.rmdir(made_dir)
        raise
    for name, path in tmp.items():
        os.replace(path, os.path.join(out_dir, name))


def _simulate_pipeline(prob: BeamProblem, config: RunConfig) -> dict:
    """Run one simulation and write trace.csv, energy.csv, bounds.json."""
    with _published(config.out_dir, ("trace.csv", "energy.csv", "bounds.json")) as paths:
        with open(paths["trace.csv"], "w") as fh:
            energy_trace = _streamed_energy(prob, config, fh)
        diagnostics.export_energy_csv(energy_trace, paths["energy.csv"])
        payload = bounds_mod.bound_report(prob, energy_trace)
        _write_json(payload, paths["bounds.json"])
    return {"energy": energy_trace, "bounds": payload}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    prob = _load(config)
    report = validate(prob)
    print(report)
    return 0 if report.ok else 1


def cmd_simulate(config: RunConfig) -> int:
    prob = _load_valid(config)
    result = _simulate_pipeline(prob, config)
    e = result["energy"]
    print(f"wrote trace.csv, energy.csv, bounds.json to {config.out_dir}")
    print(f"E(0) = {e.E0:.6g}, E(T-) = {e.E[-1]:.6g}"
          + (", forced run: decay guarantees informational only" if e.forced else ""))
    return 0


def cmd_verify(config: RunConfig) -> int:
    if not config.is_preset:
        raise _UsageError("verify needs a preset with an attached exact solution")
    try:
        exact = problem_mod.exact_solution(config.source)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    prob = _load(config)
    with _published(config.out_dir, ("errors.csv",)) as paths:
        rows = _streamed_errors(prob, config, exact).rows()
        _write_table(("quantity", "max_error", "l2_error"), rows, paths["errors.csv"])
    for name, mx, l2 in rows:
        print(f"{name:5s} max {mx:.3e}  l2 {l2:.3e}")
    return 0


def _order(coarse: float, fine: float) -> float:
    """The observed order ``log2(coarse / fine)`` of one refinement; nan
    unless both values are positive (a beam at rest has nothing to halve)."""
    return math.log2(coarse / fine) if coarse > 0 and fine > 0 else float("nan")


def cmd_convergence(config: RunConfig, levels: int) -> int:
    if levels < 3:
        raise _UsageError("--levels must be >= 3")
    prob = _load_valid(config)
    exact = None
    if config.is_preset:
        with contextlib.suppress(ValueError):   # a preset without an exact solution
            exact = problem_mod.exact_solution(config.source)
    if exact is None and prob.has_forcing:
        raise _UsageError(
            "convergence needs an exact solution (test_NE1) or homogeneous forcing")

    dt0 = config.resolve_dt(prob)
    rows = []
    with _published(config.out_dir, ("convergence.csv",)) as paths:
        if exact is not None:
            # temporal error study at fixed mesh
            errors = []
            for k in range(levels):
                level = dataclasses.replace(config, dt=dt0 / 2**k)
                err = _streamed_errors(prob, level, exact).max["u"]
                errors.append(err)
                order = _order(errors[-2], err) if k else float("nan")
                rows.append(("temporal_u_error", k, level.mesh(prob).h, level.grid(prob).dt,
                             err, order))

        if not prob.has_forcing:
            # energy-balance residual under simultaneous space-time refinement
            residuals = []
            for k in range(levels):
                level = dataclasses.replace(config, nodes=(config.nodes - 1) * 2**k + 1,
                                            dt=dt0 / 2**k)
                res = diagnostics.identity_residual(_streamed_energy(prob, level))
                residuals.append(res)
                order = _order(residuals[-2], res) if k else float("nan")
                rows.append(("identity_residual", k, level.mesh(prob).h, level.grid(prob).dt,
                             res, order))

        _write_table(("study", "level", "h_x", "dt", "value", "order"), rows,
                     paths["convergence.csv"])
    for study, k, hx, dt, value, order in rows:
        print(f"{study} level {k}: value {value:.3e} order {order:.2f}")
    return 0


def _with_parameter(prob: BeamProblem, param: str, value: float) -> BeamProblem:
    if param == "mu_scale":
        return dataclasses.replace(prob, mu=prob.mu.scaled(value))
    return dataclasses.replace(
        prob, boundary=dataclasses.replace(prob.boundary, **{param: value}))


def _member_dir(param: str, value: float) -> str:
    return f"{param}_{value:g}"


def _sweep_member(base: BeamProblem, param: str, value: float, config: RunConfig) -> dict:
    """Run one sweep member, write its artifacts and return its sweep.csv row."""
    sub = os.path.join(config.out_dir, _member_dir(param, value))
    result = _simulate_pipeline(_with_parameter(base, param, value),
                                dataclasses.replace(config, out_dir=sub))
    e, b = result["energy"], result["bounds"]
    return {
        "value": value,
        "beta0": b["beta0"], "beta1": b["beta1"],
        "lambda_max": b["lambda_max"], "lambda": b["lambda"],
        "M_d": b["M_d"], "sigma": b["sigma"],
        "E0": e.E0, "E_final_over_E0": float(e.E[-1] / e.E0) if e.E0 else 0.0,
        "j_mu": float(e.j_mu[-1]), "j_a": float(e.j_a[-1]), "j_v": float(e.j_v[-1]),
    }


def cmd_sweep(config: RunConfig, param: str, values_text: str) -> int:
    try:
        values = [float(v) for v in values_text.split(",") if v.strip() != ""]
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

    base = _load_valid(config)
    # every member is checked before any starts, so an invalid one leaves no
    # member directory behind; so is --lambda, wherever no run can make it
    # admissible (a damper-only member's window needs its run, which checks it)
    members = [_with_parameter(base, param, v) for v in values]
    for v, member in zip(values, members):
        report = validate(member)
        if not report.ok:
            raise _InvalidProblem(f"{param} = {v:g}: invalid problem\n{report}")
    for member in members:
        bounds_mod.check_explicit_penalty(member, config.lam)

    # Members share nothing, so they run in worker processes.  ``fork`` keeps
    # this process's imports (a ``spawn`` worker would import numpy and the
    # package again; a worker imports scipy only for a member above
    # fem.DENSE_MAX_N DOFs); the only other threads are OpenBLAS's, which it
    # shuts down before a fork.  pool.map re-raises a member's exception
    # with its own type, and the members not yet started are then
    # cancelled.  The pool fills the CPUs, so its members step in-process
    # (``_steps_ahead``).  The output directory is made here, before any
    # member starts, so a failed member removes only its own directory.
    member = functools.partial(_sweep_member, base, param, config=config)
    workers = min(len(values), _usable_cpus())
    cols = ("value", "beta0", "beta1", "lambda_max", "lambda", "M_d", "sigma",
            "E0", "E_final_over_E0", "j_mu", "j_a", "j_v")
    with _published(config.out_dir, ("sweep.csv",)) as paths:
        if workers > 1 and hasattr(os, "fork"):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                summaries = list(pool.map(member, values))   # in value order
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            summaries = list(map(member, values))
        _write_table(("param", *cols), [(param, *(row[c] for c in cols)) for row in summaries],
                     paths["sweep.csv"])
    print(f"wrote {os.path.join(config.out_dir, 'sweep.csv')} ({len(values)} runs)")
    return 0


def cmd_bounds(config: RunConfig) -> int:
    prob = _load_valid(config)
    try:
        regime = bounds_mod.classify_regime(prob)
    except ValueError as exc:
        print(f"no decay certificate: {exc}", file=sys.stderr)
        return 1

    with _published(config.out_dir, ("bounds.json",)) as paths:
        # the damper-only window depends on the solution: run the configured simulation
        energy_trace = _streamed_energy(prob, config) if regime == "theorem2" else None
        payload = bounds_mod.bound_report(prob, energy_trace, config.lam)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "convergence":
            return cmd_convergence(config, args.levels)
        if args.command == "sweep":
            return cmd_sweep(config, args.param, args.values)
        if args.command == "bounds":
            return cmd_bounds(config)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except _InvalidProblem as exc:
        print(exc, file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so numerics are caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
