"""Command-line front end: problem files in, traces/energies/bounds out.

    beamstab <validate|simulate|verify|convergence|sweep|bounds>
             [--preset NAME | --problem FILE] [--nodes M]
             [--dt H | --ratio R] [--lambda L] [--mode paper|basis]
             [--out DIR] ...

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 usage
error.  Outputs are deterministic: identical inputs produce byte-identical
files.  ``sweep`` runs its members in forked worker processes, at most one
per CPU this process may run on (in-process when only one would run); its
outputs are byte-identical whatever the worker count.

``simulate``, ``sweep`` members and ``bounds`` feed each window of
``TimeStepper.blocks()`` to the diagnostics and the trace writer, so they
hold O(N + CHUNK_LEVELS n) of a run of N levels and n DOFs, not the O(N n)
history, and write their artifacts only when the run succeeds.  When this
process may use a second CPU and can fork, ``simulate``, ``bounds`` and
the members of a sweep that runs in-process step in a forked child
(``TimeStepper.forked_blocks``) while this process reduces the windows;
members in the sweep's worker pool, which already fills the CPUs, step
in-process.  The windows are the same bytes either way, and so are the
artifacts.  ``verify`` and ``convergence`` compare every level with an
exact solution, so they keep the stored history.
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
from .fem import FieldKernel, Mesh, assemble
from .problem import BeamProblem, CoefficientField, load_problem, preset, validate

__all__ = ["main", "RunConfig"]

SWEEP_PARAMS = ("k_r", "k_a", "k_d", "k_v", "mu_scale")


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved run options shared by all commands."""

    source: str                  # preset name or file path
    is_preset: bool
    nodes: int = 41
    dt: float | None = None
    ratio: float | None = None   # dt = h_x / ratio when dt not given
    out_dir: str = "."
    decimate: int = 1
    mode: str = "paper"
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
    sub.add_argument("--mode", choices=("paper", "basis"), default="paper",
                     help="curvature post-processing mode")
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
    for flag, value in (("--dt", args.dt), ("--ratio", args.ratio)):
        if value is not None and not (0.0 < value < math.inf):
            raise _UsageError(f"{flag} must be positive and finite; got {value:g}")
    ratio = args.ratio if args.dt is None else None
    if args.dt is None and ratio is None:
        ratio = 40.0
    return RunConfig(
        source=args.preset or args.problem,
        is_preset=args.preset is not None,
        nodes=args.nodes,
        dt=args.dt,
        ratio=ratio,
        out_dir=args.out,
        decimate=getattr(args, "decimate", 1),
        mode=args.mode,
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
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read problem file {config.source}: {exc}") from None


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bound_payload(prob: BeamProblem, energy_trace, lam) -> dict:
    """Bound report, or a constants-only stub when no certificate applies.

    The window is the one ``energy_trace`` carries; without a trace (the
    theorem-1 ``bounds`` command) it needs no run.
    """
    try:
        lam_max = None
        if energy_trace is not None:
            lam_max = energy_trace.lambda_max
            if lam_max is None:
                raise ValueError(energy_trace.window_error)
        bound = bounds_mod.compute_decay_bound(prob, lam=lam, lambda_max=lam_max)
    except ValueError as exc:
        beta0, beta1 = bounds_mod.beta_constants(prob)
        return {
            "beta0": beta0, "beta1": beta1, "lambda_max": None, "lambda": None,
            "M_d": None, "sigma": None, "regime": None, "scan": [],
            "envelope": None, "note": str(exc),
        }
    envelope = None
    if energy_trace is not None:
        envelope = bounds_mod.verify_envelopes(energy_trace, bound)
    return bounds_mod.bound_report(bound, envelope=envelope)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _steps_ahead() -> bool:
    """Whether a run may step in a forked child: this process can fork, and
    a second CPU is there for the child while this one reduces."""
    return hasattr(os, "fork") and _usable_cpus() > 1


def _streamed_energy(prob: BeamProblem, config: RunConfig, trace_file=None,
                     ahead: bool = False):
    """Integrate the configured run once and feed each window of levels to the
    energy diagnostics and, given an open ``trace.csv``, to the trace writer;
    the DOF history is never stored.  With ``ahead`` the windows come from
    ``TimeStepper.forked_blocks``, which steps in a child process; the
    results are the same bytes."""
    mesh, grid = config.mesh(prob), config.grid(prob)
    system = assemble(prob, mesh)
    acc = diagnostics.EnergyAccumulator(system, grid, lam=config.lam, mode=config.mode)
    writer = None
    if trace_file is not None:
        writer = stepper.TraceWriter(system, grid, decimate=config.decimate)
    steps = stepper.TimeStepper(system, grid)
    # closed here, not by the collector, if this loop fails: that reaps the child
    with contextlib.closing(steps.forked_blocks() if ahead else steps.blocks()) as windows:
        for first, window in windows:
            if writer is not None:
                writer.write(trace_file, window, first)
            acc.add(window, first)
    return acc.result()


@contextlib.contextmanager
def _published(out_dir: str, names):
    """Temporary paths in ``out_dir`` to write ``names`` under.  They are
    renamed into place if the block succeeds and removed if it fails, so a
    run that fails part-way leaves no partial artifact."""
    tmp = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        yield tmp
    except BaseException:
        for path in tmp.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    for name, path in tmp.items():
        os.replace(path, os.path.join(out_dir, name))


def _simulate_pipeline(prob: BeamProblem, config: RunConfig, out_dir: str,
                       ahead: bool) -> dict:
    """Run one simulation and write trace.csv, energy.csv, bounds.json."""
    os.makedirs(out_dir, exist_ok=True)
    with _published(out_dir, ("trace.csv", "energy.csv", "bounds.json")) as paths:
        with open(paths["trace.csv"], "w") as fh:
            energy_trace = _streamed_energy(prob, config, fh, ahead)
        diagnostics.export_energy_csv(energy_trace, paths["energy.csv"])
        payload = _bound_payload(prob, energy_trace, config.lam)
        _write_json(payload, paths["bounds.json"])
    return {"energy": energy_trace, "bounds": payload}


def _nodal_history(trace) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) nodal displacement and slope histories, clamped node included."""
    hist = trace.dof_history
    n_levels = hist.shape[0]
    u = np.concatenate([np.zeros((n_levels, 1)), hist[:, 0::2]], axis=1)
    ux = np.concatenate([np.zeros((n_levels, 1)), hist[:, 1::2]], axis=1)
    return u, ux


def _nodal_curvature_basis(trace) -> np.ndarray:
    """Hermite-exact curvature at nodes (left-element limit at x > 0)."""
    curv = FieldKernel(trace.system.mesh.h, (0.0, 1.0)).curvatures(trace.dof_history)
    return np.concatenate([curv[:, :1, 0], curv[:, :, 1]], axis=1)  # node 0: right limit


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    prob = _load(config)
    report = validate(prob)
    print(report)
    return 0 if report.ok else 1


def cmd_simulate(config: RunConfig) -> int:
    prob = _load(config)
    report = validate(prob)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    result = _simulate_pipeline(prob, config, config.out_dir, _steps_ahead())
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
    trace = stepper.run(prob, config.mesh(prob), config.grid(prob))
    grid, mesh = trace.grid, trace.system.mesh

    u_num, ux_num = _nodal_history(trace)
    xs = mesh.nodes[None, :]
    ts = grid.times[:, None]
    err_u = u_num - exact.u(xs, ts)
    err_ux = ux_num - exact.u_x(xs, ts)

    dt = grid.dt
    ut_num = (u_num[2:] - u_num[:-2]) / (2.0 * dt)
    t_int = grid.times[1:-1, None]
    err_ut = ut_num - exact.u_t(xs, t_int)

    if config.mode == "basis":
        uxx_num = _nodal_curvature_basis(trace)[1:-1]
    else:
        uxx_num = diagnostics._nodal_curvature(trace.dof_history, mesh.h)[1:-1]
    err_uxx = uxx_num - exact.u_xx(xs, t_int)

    cell = mesh.h * dt
    rows = []
    for name, err in (("u", err_u), ("u_x", err_ux), ("u_t", err_ut), ("u_xx", err_uxx)):
        rows.append((name, float(np.max(np.abs(err))),
                     float(math.sqrt(np.sum(err**2) * cell))))

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "errors.csv")
    with open(path, "w") as fh:
        fh.write("quantity, max_error, l2_error\n")
        for name, mx, l2 in rows:
            fh.write(f"{name}, {mx:.17g}, {l2:.17g}\n")
    for name, mx, l2 in rows:
        print(f"{name:5s} max {mx:.3e}  l2 {l2:.3e}")
    return 0


def cmd_convergence(config: RunConfig, levels: int) -> int:
    if levels < 3:
        raise _UsageError("--levels must be >= 3")
    prob = _load(config)
    exact = None
    if config.is_preset:
        try:
            exact = problem_mod.exact_solution(config.source)
        except ValueError:
            exact = None
    if exact is None and prob.has_forcing:
        raise _UsageError(
            "convergence needs an exact solution (test_NE1) or homogeneous forcing")

    rows = []
    if exact is not None:
        # temporal error study at fixed mesh
        mesh = config.mesh(prob)
        dt0 = config.resolve_dt(prob)
        errors = []
        for k in range(levels):
            grid = stepper.TimeGrid.from_dt(prob.final_time, dt0 / 2**k)
            trace = stepper.run(prob, mesh, grid)
            u_num, _ = _nodal_history(trace)
            err = float(np.max(np.abs(
                u_num - exact.u(mesh.nodes[None, :], grid.times[:, None]))))
            errors.append(err)
            order = math.log2(errors[-2] / err) if k else float("nan")
            rows.append(("temporal_u_error", k, mesh.h, grid.dt, err, order))

    if not prob.has_forcing:
        # energy-balance residual under simultaneous space-time refinement
        base_nodes = config.nodes
        dt0 = config.resolve_dt(prob)
        residuals = []
        for k in range(levels):
            nodes = (base_nodes - 1) * 2**k + 1
            mesh = Mesh(prob.length, nodes)
            grid = stepper.TimeGrid.from_dt(prob.final_time, dt0 / 2**k)
            trace = stepper.run(prob, mesh, grid)
            e = diagnostics.energy(trace, lam=config.lam, mode=config.mode)
            res = diagnostics.identity_residual(e)
            residuals.append(res)
            order = math.log2(residuals[-2] / res) if k else float("nan")
            rows.append(("identity_residual", k, mesh.h, grid.dt, res, order))

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "convergence.csv")
    with open(path, "w") as fh:
        fh.write("study, level, h_x, dt, value, order\n")
        for study, k, hx, dt, value, order in rows:
            fh.write(f"{study}, {k}, {hx:.17g}, {dt:.17g}, {value:.17g}, "
                     f"{order:.17g}\n")
    for study, k, hx, dt, value, order in rows:
        print(f"{study} level {k}: value {value:.3e} order {order:.2f}")
    return 0


def _scale_coefficient(coeff: CoefficientField, s: float) -> CoefficientField:
    if coeff.kind == "constant":
        return CoefficientField.constant(coeff.data[0] * s)
    if coeff.kind == "polynomial":
        return CoefficientField.polynomial(tuple(c * s for c in coeff.data))
    xs, ys = coeff.data
    return CoefficientField.table(xs, tuple(y * s for y in ys))


def _with_parameter(prob: BeamProblem, param: str, value: float) -> BeamProblem:
    if param == "mu_scale":
        return dataclasses.replace(prob, mu=_scale_coefficient(prob.mu, value))
    return dataclasses.replace(
        prob, boundary=dataclasses.replace(prob.boundary, **{param: value}))


def _member_dir(param: str, value: float) -> str:
    return f"{param}_{value:g}"


def _sweep_member(base: BeamProblem, param: str, value: float, config: RunConfig,
                  ahead: bool) -> dict:
    """Run one sweep member, write its artifacts and return its sweep.csv row."""
    prob = _with_parameter(base, param, value)
    sub = os.path.join(config.out_dir, _member_dir(param, value))
    result = _simulate_pipeline(prob, config, sub, ahead)
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

    base = _load(config)
    report = validate(base)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    # every member is checked before any starts, so an invalid one leaves no
    # member directory behind; so is --lambda, against each window that needs
    # no run (a damper-only member's window needs its run, which checks it)
    members = [_with_parameter(base, param, v) for v in values]
    for v, member in zip(values, members):
        report = validate(member)
        if not report.ok:
            print(f"{param} = {v:g}: invalid problem\n{report}", file=sys.stderr)
            return 1
    if config.lam is not None:
        for member in members:
            try:
                lam_max, _ = bounds_mod.lambda_window(member)
            except ValueError:
                continue   # the window needs the member's run, or there is none
            bounds_mod.check_penalty(config.lam, lam_max)

    # Members share nothing, so they run in worker processes.  ``fork`` keeps
    # this process's imports (a ``spawn`` worker would import numpy and scipy
    # again); the only other threads are OpenBLAS's, which it shuts down
    # before a fork.  pool.map re-raises a member's exception with its own
    # type, and the members not yet started are then cancelled.  The pool
    # fills the CPUs, so its members step in-process.
    import multiprocessing

    member = functools.partial(_sweep_member, base, param, config=config)
    workers = min(len(values), _usable_cpus())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            summaries = list(pool.map(functools.partial(member, ahead=False),
                                      values))   # in value order
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        summaries = [member(v, ahead=_steps_ahead()) for v in values]

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sweep.csv")
    cols = ["value", "beta0", "beta1", "lambda_max", "lambda", "M_d", "sigma",
            "E0", "E_final_over_E0", "j_mu", "j_a", "j_v"]
    with open(path, "w") as fh:
        fh.write("param, " + ", ".join(cols) + "\n")
        for row in summaries:
            cells = ", ".join(
                "nan" if row[c] is None else f"{row[c]:.17g}" for c in cols)
            fh.write(f"{param}, {cells}\n")
    print(f"wrote {path} ({len(values)} runs)")
    return 0


def cmd_bounds(config: RunConfig) -> int:
    prob = _load(config)
    report = validate(prob)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    try:
        regime = bounds_mod.classify_regime(prob)
    except ValueError as exc:
        print(f"no decay certificate: {exc}", file=sys.stderr)
        return 1

    energy_trace = None
    if regime == "theorem2":
        # window depends on the solution: run the configured simulation
        energy_trace = _streamed_energy(prob, config, ahead=_steps_ahead())
    payload = _bound_payload(prob, energy_trace, config.lam)
    os.makedirs(config.out_dir, exist_ok=True)
    _write_json(payload, os.path.join(config.out_dir, "bounds.json"))
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
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so numerics are caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
