"""Command-line interface: commands, exit codes, artifacts, idempotence."""

import contextlib
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import beamstab.cli as cli
from beamstab import bounds, diagnostics, fem, stepper
from beamstab import problem as pb
from beamstab.cli import main
from beamstab.fem import CHUNK_LEVELS, FieldKernel, windows


def _write(tmp_path, prob, name="problem.json"):
    path = tmp_path / name
    pb.save_problem(prob, path)
    return str(path)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks through ``os.fork``."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _mesh_grid(prob, nodes, ratio=40.0):
    """The mesh and time grid the CLI builds for ``--nodes nodes --ratio ratio``."""
    mesh = fem.Mesh(prob.length, nodes)
    return mesh, stepper.TimeGrid.from_dt(prob.final_time, mesh.h / ratio)


def _rest_problem():
    return dataclasses.replace(
        pb.preset("cantilever_dampers"),
        initial=pb.InitialData(u0=pb.SpatialProfile.polynomial((0.0,)),
                               u1=pb.SpatialProfile.polynomial((0.0,))))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_validate_presets(name):
    assert main(["validate", "--preset", name]) == 0


def test_validate_degenerate_rigidity(tmp_path, capsys):
    bad = dataclasses.replace(pb.preset("test_NE1"),
                              rigidity=pb.CoefficientField.constant(0.0))
    assert main(["validate", "--problem", _write(tmp_path, bad)]) == 1
    assert "r0 > 0 fails" in capsys.readouterr().out


def test_validate_undamped_warns_but_exits_zero(tmp_path, capsys):
    undamped = dataclasses.replace(
        pb.preset("cantilever_spring"),
        mu=pb.CoefficientField.constant(0.0))
    assert main(["validate", "--problem", _write(tmp_path, undamped)]) == 0
    assert "WARNING" in capsys.readouterr().out


def _malformed(case):
    d = pb.problem_to_dict(pb.preset("cantilever_dampers"))
    if case == "list":
        return [d]
    if case == "rho_number":
        d["rho"] = 5
    elif case == "mu_data_null":
        d["mu"] = {"kind": "polynomial", "data": None}
    elif case == "length_bool":
        d["length"] = True
    elif case == "k_v_string":
        d["boundary"]["k_v"] = "1"
    elif case == "table_entry_string":
        d["mu"] = {"kind": "table", "data": {"x": [0.0, 1.0], "y": [1.0, "2"]}}
    else:
        d["length"] = None
    return d


@pytest.mark.parametrize("case", ["rho_number", "mu_data_null", "length_null", "list",
                                  "length_bool", "k_v_string", "table_entry_string"])
def test_malformed_problem_file_is_a_usage_error(tmp_path, capsys, case):
    # values of the wrong type raise TypeError while the file is read; a
    # bool or a string is not a number, though float() would read it as one
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_malformed(case)))
    assert main(["validate", "--problem", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: cannot read problem file {path}: ")
    assert "Traceback" not in captured.err + captured.out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--preset", "test_NE1", "--nodes", "21",
                 "--ratio", "20", "--out", str(out)])
    assert code == 0
    energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    bounds = json.loads((out / "bounds.json").read_text())
    t, e_col = energy[:, 0], energy[:, 1]
    sel = t >= 0.05
    assert np.max(np.abs(e_col[sel] / (17.4 * np.exp(-4 * t[sel])) - 1.0)) < 0.01
    assert trace.shape[1] == 4
    assert bounds["beta0"] == 0.5 and bounds["beta1"] == 5.0
    assert bounds["regime"] == "theorem1"
    assert bounds["envelope"]["violations"] == {"upper": 0, "lower": 0, "decay": 0}
    assert bounds["envelope"]["informational"] is True


def test_simulate_rest_state_is_identically_zero(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _rest_problem())
    assert main(["simulate", "--problem", path, "--nodes", "9", "--ratio", "10",
                 "--out", str(out)]) == 0
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert np.all(trace[:, 2] == 0.0) and np.all(trace[:, 3] == 0.0)
    energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert np.all(energy[:, 1] == 0.0)


def test_simulate_mast_reports_theorem2(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "mast_constant", "--nodes", "11",
                 "--ratio", "10", "--out", str(out)]) == 0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["regime"] == "theorem2"
    assert bounds["lambda_max"] > 0.0
    assert bounds["envelope"]["violations"]["decay"] == 0


@pytest.mark.parametrize("name", ["cantilever_spring", "mast_constant"])
def test_simulated_energy_csv_never_rises_more_than_1e_6_e0(tmp_path, name):
    # the dissipativity rule of acceptance criterion 5, read off the written
    # artifact: E rises by at most 1e-6 E(0) from one row to the next.  With
    # the centered nodal-slope curvature these rose by 1.47e-6 and 2.6e-5
    out = tmp_path / "out"
    assert main(["simulate", "--preset", name, "--nodes", "41", "--out", str(out)]) == 0
    energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    worst_rise = np.max(np.diff(energy[:, 1])) / diagnostics.initial_energy(pb.preset(name))
    assert worst_rise <= 1e-6, worst_rise


def test_simulate_is_idempotent(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--preset", "test_NE1", "--nodes", "9",
                     "--ratio", "10", "--out", str(out)]) == 0
    for name in ("trace.csv", "energy.csv", "bounds.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_invalid_problem_exits_one(tmp_path):
    bad = dataclasses.replace(pb.preset("test_NE1"),
                              rho=pb.CoefficientField.constant(-1.0))
    assert main(["simulate", "--problem", _write(tmp_path, bad),
                 "--out", str(tmp_path / "out")]) == 1


def test_simulate_blow_up_leaves_no_partial_artifacts(tmp_path, monkeypatch, capsys, forks):
    # the 1e-300 exp(1000 t) end shear overflows near t = 0.71, so several
    # blocks of the trace are written before the run fails in the stepping child
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    prob = dataclasses.replace(
        pb.preset("cantilever_dampers"),
        forcing=pb.BoundaryForcing(g_Q=pb.TimeFunction.exponential(1e-300, 1000.0)))
    problem_file = _write(tmp_path, prob)
    good, bad = tmp_path / "good", tmp_path / "bad"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--problem", problem_file, "--nodes", "9",
                     "--dt", "0.0025", "--out", str(bad)]) == 2
    assert "non-finite values at t = " in capsys.readouterr().err
    assert not bad.exists() and len(forks) == 1
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "9", "--ratio", "10",
                 "--out", str(good)]) == 0
    assert sorted(os.listdir(good)) == ["bounds.json", "energy.csv", "trace.csv"]


def _stored_window(prob, trace):
    """The penalty window of a stored trace: the damper-only one from a pass
    of its own over the history (the oracle of the streamed window), whose
    kinetic column is ``m sum h w u_t^2`` with plain Gauss weights, and
    whose t = 0 entries come from the analytic initial velocity."""
    if bounds.classify_regime(prob) != "theorem2":
        return bounds.lambda_window(prob)[0]
    quad, hist = trace.system.quadrature, trace.dof_history
    mesh = trace.system.mesh
    weights = np.tile(mesh.h * fem.gauss_rule(len(quad.xi))[1], mesh.element_count)
    tip_vel, tip_ang, kinetic = np.empty((3, trace.grid.step_count - 1))
    u1, length = prob.initial.u1, prob.length
    tip_vel[0], tip_ang[0] = u1(length), u1.d1(length)
    kinetic[0] = fem.integrate_data(prob, lambda x: prob.rho(x) * u1(x) ** 2)
    for first, stop in windows(trace.grid.step_count):
        out = slice(first + 1, stop - 1)   # the window's interior levels first + 1 .. stop - 2
        ut = (hist[first + 2:stop] - hist[first:stop - 2]) / (2.0 * trace.grid.dt)
        ut_q = quad.values(ut)
        kinetic[out] = float(prob.rho(0.0)) * quad.integral(weights, ut_q, ut_q)
        tip_vel[out], tip_ang[out] = ut[:, -2], ut[:, -1]
    return bounds.lambda_window(prob, (trace.grid, tip_vel, tip_ang, kinetic))[0]


def _assert_same_energy(stored, streamed):
    for field in dataclasses.fields(stored):
        a, b = getattr(stored, field.name), getattr(streamed, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("explicit_lam", [False, True])
@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_streamed_pass_is_bitwise_the_stored_energy_and_window(monkeypatch, name, explicit_lam):
    prob = pb.preset(name)
    mesh, grid = _mesh_grid(prob, 9, 20.0)
    trace = stepper.run(prob, mesh, grid)
    assert trace.grid.step_count > 2 * CHUNK_LEVELS + 1
    lam_max = _stored_window(prob, trace)
    lam = 0.5 * lam_max if explicit_lam else None
    for cpus in (1, 2):   # stepped in-process, then in a forked child
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        streamed = cli._streamed_energy(prob, mesh, grid, lam)
        _assert_same_energy(diagnostics.energy(trace, lam=lam), streamed)
        assert streamed.bound.lambda_max == lam_max
        assert streamed.window_error is None


@pytest.mark.parametrize("lam", [None, 0.01])
@pytest.mark.parametrize("case", ["dead_tip", "undamped"])
def test_streamed_pass_fails_the_window_like_the_stored_one(monkeypatch, case, lam):
    base = pb.preset("mast_constant")
    if case == "dead_tip":  # the tip starts at rest
        prob = dataclasses.replace(base, initial=dataclasses.replace(
            base.initial, u1=pb.SpatialProfile.polynomial((0.0,))))
    else:
        prob = dataclasses.replace(base, boundary=pb.BoundaryParams())
    mesh, grid = _mesh_grid(prob, 9, 20.0)
    trace = stepper.run(prob, mesh, grid)
    with pytest.raises(ValueError) as window:
        _stored_window(prob, trace)
    for cpus in (1, 2):   # stepped in-process, then in a forked child
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        if lam is None:
            streamed = cli._streamed_energy(prob, mesh, grid, lam)
            _assert_same_energy(diagnostics.energy(trace), streamed)
            assert streamed.bound is None
            assert streamed.window_error == str(window.value)
        else:
            with pytest.raises(ValueError) as stored:
                diagnostics.energy(trace, lam=lam)
            with pytest.raises(ValueError) as streamed:
                cli._streamed_energy(prob, mesh, grid, lam)
            assert str(streamed.value) == str(stored.value)
            assert str(window.value) in str(stored.value)
    if case == "dead_tip":
        assert "fails at t = 0" in str(window.value)


# ---------------------------------------------------------------------------
# verify and convergence
# ---------------------------------------------------------------------------

def test_verify_ne1(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--preset", "test_NE1", "--nodes", "11",
                 "--ratio", "20", "--out", str(out)]) == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "quantity, max_error, l2_error"
    table = {line.split(",")[0].strip(): float(line.split(",")[1])
             for line in rows[1:]}
    assert set(table) == {"u", "u_x", "u_t", "u_xx"}
    assert table["u"] < 1e-3


def _stored_errors(prob, mesh, grid, exact):
    """The errors of ``verify`` from a stored history, all levels at once:
    the oracle of the streamed error reducer."""
    trace = stepper.run(prob, mesh, grid)
    grid, mesh, hist = trace.grid, trace.system.mesh, trace.dof_history
    u_num = np.concatenate([np.zeros((len(hist), 1)), hist[:, 0::2]], axis=1)
    ux_num = np.concatenate([np.zeros((len(hist), 1)), hist[:, 1::2]], axis=1)
    xs, ts, t_int = mesh.nodes[None, :], grid.times[:, None], grid.times[1:-1, None]
    curv = FieldKernel(mesh.h, (0.0, 1.0)).curvatures(hist)
    uxx_num = np.concatenate([curv[:, :1, 0], curv[:, :, 1]], axis=1)[1:-1]
    return {
        "u": u_num - exact.u(xs, ts),
        "u_x": ux_num - exact.u_x(xs, ts),
        "u_t": (u_num[2:] - u_num[:-2]) / (2.0 * grid.dt) - exact.u_t(xs, t_int),
        "u_xx": uxx_num - exact.u_xx(xs, t_int),
    }, mesh.h * grid.dt


@pytest.mark.parametrize("nodes", [11, 41])
def test_verify_streams_the_stored_errors(tmp_path, nodes):
    # max columns byte for byte; the L2 sums of squares are summed block by
    # block rather than at once, which moved them by at most 1.8e-16
    # relative (test_NE1, M = 11 and 41)
    out = tmp_path / "out"
    assert main(["verify", "--preset", "test_NE1", "--nodes", str(nodes),
                 "--out", str(out)]) == 0
    prob = pb.preset("test_NE1")
    errors, cell = _stored_errors(prob, *_mesh_grid(prob, nodes), pb.exact_solution("test_NE1"))
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "quantity, max_error, l2_error"
    assert [r.split(", ")[0] for r in rows[1:]] == list(errors)
    for row, err in zip(rows[1:], errors.values()):
        _, mx, l2 = row.split(", ")
        assert mx == f"{float(np.max(np.abs(err))):.17g}"
        stored_l2 = float(np.sqrt(np.sum(err**2) * cell))
        assert abs(float(l2) - stored_l2) <= 1e-15 * stored_l2


def test_verify_without_exact_solution_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--preset", "cantilever_free"]) == 3
    assert "exact solution" in capsys.readouterr().err


def test_convergence_orders_ne1(tmp_path):
    out = tmp_path / "out"
    assert main(["convergence", "--preset", "test_NE1", "--nodes", "9",
                 "--dt", "0.01", "--levels", "3", "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    temporal = [r for r in rows if r.startswith("temporal_u_error")]
    assert len(temporal) == 3
    orders = [float(r.split(",")[5]) for r in temporal[1:]]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_convergence_identity_study_on_homogeneous_preset(tmp_path):
    out = tmp_path / "out"
    assert main(["convergence", "--preset", "cantilever_spring", "--nodes", "6",
                 "--ratio", "20", "--levels", "3", "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    identity = [r for r in rows if r.startswith("identity_residual")]
    assert len(identity) == 3
    values = [float(r.split(",")[4]) for r in identity]
    assert values[2] < values[0]


@pytest.mark.parametrize("args", [
    ["--preset", "test_NE1", "--nodes", "9", "--dt", "0.01"],
    ["--preset", "cantilever_spring", "--nodes", "6", "--ratio", "20"]])
def test_convergence_streams_the_stored_studies(tmp_path, args):
    # convergence.csv byte for byte as the stored histories give it
    out = tmp_path / "out"
    assert main(["convergence", *args, "--levels", "3", "--out", str(out)]) == 0
    parsed = cli._build_parser().parse_args(["convergence", *args])
    prob = pb.preset(parsed.preset)
    dt0 = parsed.dt if parsed.dt is not None else prob.length / (parsed.nodes - 1) / parsed.ratio
    lines = ["study, level, h_x, dt, value, order"]

    def study(name, values, levels):
        for k, (value, (mesh, grid)) in enumerate(zip(values, levels)):
            order = math.log2(values[k - 1] / value) if k else float("nan")
            lines.append(f"{name}, {k}, {mesh.h:.17g}, "
                         f"{grid.dt:.17g}, {value:.17g}, {order:.17g}")

    def grid(k):
        return stepper.TimeGrid.from_dt(prob.final_time, dt0 / 2**k)

    if parsed.preset == "test_NE1":
        levels = [(fem.Mesh(prob.length, parsed.nodes), grid(k)) for k in range(3)]
        exact = pb.exact_solution("test_NE1")
        study("temporal_u_error", [float(np.max(np.abs(_stored_errors(prob, *c, exact)[0]["u"])))
                                   for c in levels], levels)
    else:
        levels = [(fem.Mesh(prob.length, (parsed.nodes - 1) * 2**k + 1), grid(k))
                  for k in range(3)]
        study("identity_residual", [diagnostics.identity_residual(diagnostics.energy(
            stepper.run(prob, *c))) for c in levels], levels)
    assert (out / "convergence.csv").read_text() == "\n".join(lines) + "\n"


def test_convergence_invalid_problem_exits_one(tmp_path, capsys):
    bad = dataclasses.replace(pb.preset("cantilever_spring"),
                              boundary=pb.BoundaryParams(k_v=-5.0))
    assert main(["convergence", "--problem", _write(tmp_path, bad),
                 "--out", str(tmp_path / "out")]) == 1
    assert "ERROR: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_convergence_of_a_beam_at_rest_has_no_order(tmp_path):
    # every residual is 0, so no level has an order to observe
    out = tmp_path / "out"
    assert main(["convergence", "--problem", _write(tmp_path, _rest_problem()),
                 "--nodes", "5", "--levels", "3", "--out", str(out)]) == 0
    rows = [r.split(", ") for r in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["identity_residual"] * 3
    assert [(r[4], r[5]) for r in rows] == [("0", "nan")] * 3


def test_convergence_needs_levels_three(tmp_path):
    assert main(["convergence", "--preset", "test_NE1", "--levels", "2"]) == 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_velocity_damper(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", "k_v",
                 "--values", "0,1,2,4", "--nodes", "9", "--ratio", "10",
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("param, value, beta0, beta1")
    assert len(rows) == 5
    for value in ("0", "1", "2", "4"):
        assert (out / f"k_v_{value}" / "energy.csv").exists()
    # beta1 grows with k_v (the comparison constant pays for the damper)
    beta1 = [float(r.split(",")[3]) for r in rows[1:]]
    assert beta1 == sorted(beta1)


def test_sweep_displacement_spring_shifts_initial_energy(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", "k_d",
                 "--values", "0,4", "--nodes", "9", "--ratio", "10",
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    e0 = {float(r.split(",")[1]): float(r.split(",")[8]) for r in rows}
    # E(0) grows by exactly k_d u0(L)^2 / 2 = 2 (u0 has unit tip displacement)
    assert e0[4.0] - e0[0.0] == pytest.approx(2.0, abs=1e-12)


def test_sweep_mu_scale_grows_bulk_dissipation(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", "mu_scale",
                 "--values", "1,2", "--nodes", "9", "--ratio", "10",
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    j_mu = {float(r.split(",")[1]): float(r.split(",")[9]) for r in rows}
    assert j_mu[2.0] > j_mu[1.0]


def test_sweep_rejects_negative_values(tmp_path):
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", "k_v",
                 "--values", "1,-2", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("param, values", [
    ("k_v", "nan"), ("k_v", "1,nan"), ("k_v", "1,inf"), ("mu_scale", "1,inf,2")])
def test_sweep_rejects_an_invalid_member_before_any_member_runs(
        tmp_path, capsys, param, values):
    # validated like an invalid base problem, so no member writes anything
    error = {"k_v": "k_v must be finite", "mu_scale": "mu: not finite"}[param]
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", param,
                 "--values", values, "--nodes", "11", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    bad = values.split(",")[1 if "," in values else 0]
    assert err.startswith(f"{param} = {bad}: invalid problem\nERROR: ")
    assert error in err
    assert list(out.iterdir()) == []


def test_sweep_rejects_an_undamped_member_before_any_member_runs(tmp_path, capsys):
    # mu_scale = 0 leaves cantilever_spring undamped: no penalty weight is
    # admissible, so --lambda is refused before member 1 writes anything
    out = tmp_path / "out"
    out.mkdir()
    assert main(["sweep", "--preset", "cantilever_spring", "--param", "mu_scale",
                 "--values", "1,0", "--lambda", "0.01", "--nodes", "11",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "usage error: no admissible penalty weight: "
        "k_a + k_v + mu0 > 0 fails: the system is undamped\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("values", ["1,2,1", "1.0000001,1.0000002"])
def test_sweep_rejects_values_that_share_a_member_directory(tmp_path, capsys, values):
    assert main(["sweep", "--preset", "cantilever_dampers", "--param", "k_v",
                 "--values", values, "--out", str(tmp_path / "out")]) == 3
    assert "share the member directory k_v_1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError, rather than hang, if the body outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _sweep(source, param, values, out, *extra):
    """Run ``sweep`` in this process (so the tests can patch the CLI) under a time limit."""
    with _time_limit(60):
        code = main(["sweep", *source, "--param", param, "--values", values,
                     "--nodes", "9", *extra, "--out", str(out)])
    assert multiprocessing.active_children() == []  # every worker was joined
    return code


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _log_stepping(monkeypatch, log):
    """Append ``<method> <pid>`` to the file ``log`` whenever any process
    calls ``TimeStepper.blocks`` or ``TimeStepper.forked_blocks``: a run
    stepped in a forked child logs ``forked_blocks`` from the process that
    reduces it and ``blocks`` from the child."""
    for name in ("blocks", "forked_blocks"):
        def logged(self, name=name, real=getattr(stepper.TimeStepper, name)):
            with open(log, "a") as fh:   # one short append per call
                fh.write(f"{name} {os.getpid()}\n")
            return real(self)

        monkeypatch.setattr(stepper.TimeStepper, name, logged)


def _stepped(log):
    """The ``(method, pid)`` pairs ``_log_stepping`` wrote to ``log``, pids as ints."""
    return [(name, int(pid)) for name, pid in map(str.split, log.read_text().splitlines())]


def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # forcing two workers also runs the pooled path on a one-CPU machine;
    # either way every member steps in-process, in the pool's worker or here
    runs, steps = {}, {}
    for workers in (1, 2):
        log, out = tmp_path / f"steps_{workers}.txt", tmp_path / f"workers_{workers}"
        with monkeypatch.context() as patch:
            _log_stepping(patch, log)
            patch.setattr(cli, "_usable_cpus", lambda: workers)
            assert _sweep(["--preset", "cantilever_dampers"], "k_v", "4,0,2,1", out,
                          "--ratio", "10") == 0
        runs[workers], steps[workers] = _files(out), _stepped(log)

    members = [f"k_v_{v}/{name}" for v in "4021"
               for name in ("bounds.json", "energy.csv", "trace.csv")]
    assert sorted(runs[1]) == sorted(members + ["sweep.csv"])
    assert runs[2] == runs[1]
    rows = runs[2]["sweep.csv"].decode().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [4.0, 0.0, 2.0, 1.0]
    assert steps[1] == [("blocks", os.getpid())] * 4
    assert [name for name, _ in steps[2]] == ["blocks"] * 4
    pids = {pid for _, pid in steps[2]}
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids


@pytest.mark.parametrize("cpus, values, pool_size", [
    (8, "1,2", 2),          # capped by the members
    (3, "1,2,3,4", 3),      # capped by the CPUs
    (1, "1,2,3", None),     # one CPU: in-process, no pool
    (4, "2", None),         # one member: in-process, no pool
])
def test_sweep_starts_no_more_workers_than_cpus_or_members(
        tmp_path, monkeypatch, cpus, values, pool_size):
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert _sweep(["--preset", "cantilever_dampers"], "k_d", values, tmp_path / "out",
                  "--ratio", "4") == 0
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("forcing, values, message", [
    # every member meets the 1e-300 exp(1000 t) end shear, which overflows
    (pb.BoundaryForcing(g_Q=pb.TimeFunction.exponential(1e-300, 1000.0)),
     "4,0,2,1", "at t = "),
    # only the k_v = 1e308 member overflows its step matrix
    (pb.BoundaryForcing(), "1,1e308,2,3", "matrix not finite"),
])
def test_sweep_member_numerical_failure_exits_two_through_the_pool(
        tmp_path, monkeypatch, capsys, forcing, values, message):
    prob = dataclasses.replace(pb.preset("cantilever_dampers"), forcing=forcing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with np.errstate(over="ignore"):
        code = _sweep(["--problem", _write(tmp_path, prob)], "k_v", values,
                      tmp_path / "out", "--dt", "0.0025")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err
    assert "Traceback" not in err and "BrokenProcessPool" not in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_member_usage_error_exits_three_through_the_pool(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for preset, param, window, members_run in (
            # every member is a valid problem, but lambda_max = 0.5 mu_scale,
            # so the explicit penalty weight is outside the window of member
            # 1 only; that window needs no run, so no member starts
            ("cantilever_dampers", "mu_scale", "0.5", False),
            # the damper-only window needs the run: the members reject it
            # in the pool
            ("mast_constant", "k_v", "0.0", True)):
        out = tmp_path / preset
        with monkeypatch.context() as patch:
            if not members_run:
                _no_stepping(patch)
            assert _sweep(["--preset", preset], param, "4,1,2", out,
                          "--ratio", "10", "--lam", "1") == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: lambda must satisfy 0 < lambda < lambda_max = "
                              + window)
        assert "Traceback" not in err
        # failed members remove the directories they made, and the sweep its own
        assert not out.exists()


# ---------------------------------------------------------------------------
# bounds command and usage errors
# ---------------------------------------------------------------------------

def test_bounds_command_theorem1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bounds", "--preset", "test_NE1", "--out", str(out)]) == 0
    data = json.loads((out / "bounds.json").read_text())
    assert data["beta0"] == 0.5 and data["beta1"] == 5.0
    assert data["lambda_max"] == 1.0
    assert data["envelope"] is None  # no trace needed in this regime


def test_bounds_rejects_a_penalty_weight_outside_the_window_like_simulate(tmp_path, capsys):
    # the theorem-1 window needs no run: both commands refuse --lambda 5
    # with the same text, and bounds writes no bounds.json
    args = ["--preset", "cantilever_dampers", "--nodes", "11", "--lambda", "5"]
    errors = []
    for command in ("simulate", "bounds"):
        out = tmp_path / command
        assert main([command, *args, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
        assert not (out / "bounds.json").exists()
    assert errors[0] == errors[1] == (
        "usage error: lambda must satisfy 0 < lambda < lambda_max = 0.5; got 5\n")


def test_bounds_command_theorem2_runs_a_simulation(tmp_path):
    out = tmp_path / "out"
    assert main(["bounds", "--preset", "mast_constant", "--nodes", "11",
                 "--ratio", "10", "--out", str(out)]) == 0
    data = json.loads((out / "bounds.json").read_text())
    assert data["regime"] == "theorem2"
    assert data["envelope"]["violations"]["decay"] == 0


def test_bounds_failed_window_writes_the_certified_keys_and_a_note(tmp_path):
    # bounds.bound_report writes the failed-window form too
    base = pb.preset("mast_constant")
    dead_tip = dataclasses.replace(base, initial=dataclasses.replace(
        base.initial, u1=pb.SpatialProfile.polynomial((0.0,))))
    args = ["--nodes", "11", "--ratio", "10"]
    assert main(["bounds", "--problem", _write(tmp_path, dead_tip), *args,
                 "--out", str(tmp_path / "dead")]) == 0
    assert main(["bounds", "--preset", "mast_constant", *args,
                 "--out", str(tmp_path / "live")]) == 0
    failed = json.loads((tmp_path / "dead" / "bounds.json").read_text())
    certified = json.loads((tmp_path / "live" / "bounds.json").read_text())
    assert "note" not in certified
    assert set(failed) == set(certified) | {"note"}
    assert "fails at t = 0" in failed["note"]


def test_bounds_command_streams_the_theorem2_window_once(tmp_path, monkeypatch):
    import beamstab.bounds as bounds

    calls = []
    window = bounds.lambda_window

    def counted(*args, **kwargs):
        calls.append(1)
        return window(*args, **kwargs)

    monkeypatch.setattr(bounds, "lambda_window", counted)
    assert main(["bounds", "--preset", "mast_constant", "--nodes", "11",
                 "--ratio", "10", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args, runs", [
    (["simulate", "--preset", "cantilever_dampers"], 1),
    (["simulate", "--preset", "mast_constant"], 1),
    (["bounds", "--preset", "cantilever_dampers"], 1),
    (["bounds", "--preset", "mast_constant"], 1),
    (["sweep", "--preset", "mast_constant", "--param", "k_v", "--values", "1,2,4"], 3),
    (["simulate", "--preset", "cantilever_dampers", "--lambda", "0.25"], 1),
    (["sweep", "--preset", "cantilever_dampers", "--param", "k_v", "--values", "1,2,4",
      "--lambda", "0.25"], 3)],
    ids=["simulate-theorem1", "simulate-theorem2", "bounds-theorem1", "bounds-theorem2",
         "sweep", "simulate-explicit-lambda", "sweep-explicit-lambda"])
def test_each_run_decides_its_certificate_once(tmp_path, monkeypatch, args, runs):
    # bounds.compute_decay_bound is the one owner of a run's certificate:
    # the energy trace carries it and bounds.json is rendered from it
    calls = []
    decide = bounds.compute_decay_bound

    def counted(*a, **kw):
        calls.append(1)
        return decide(*a, **kw)

    monkeypatch.setattr(bounds, "compute_decay_bound", counted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)   # every run in this process
    assert main([*args, "--nodes", "11", "--ratio", "10", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == runs


def _python(code: str, *args, **env) -> str:
    """The standard output of ``python -c code args`` in a fresh interpreter
    that imports this package, with the environment variables ``env`` set
    too, which must exit 0."""
    import beamstab

    src = os.path.dirname(os.path.dirname(os.path.abspath(beamstab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs the CLI, then prints the peak RSS in KiB of its own process (VmHWM)
# or of a child it reaped, whichever is higher.  The ru_maxrss that os.wait4
# reads for a spawned process is no use here: it starts at the spawning
# process's peak, which exec records, so under a test runner that peaked
# high every run reads the same.  The forked stepping child is not exec'd,
# so its figure is its own.
_PEAK_LAUNCHER = """\
import resource, sys
from beamstab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(code)
"""


def _peak_mib(args, out):
    """Peak RSS of one whole CLI run, its children's included."""
    return int(_python(_PEAK_LAUNCHER, *args, "--out", out).split()[-1]) / 1024.0


# Runs the CLI; "one" as the first argument first confines this thread to
# its first CPU, after numpy has started its BLAS threads, so the run steps
# in-process while the BLAS keeps its thread count.
_PINNED_LAUNCHER = """\
import os, sys
from beamstab.cli import main
if sys.argv[1] == "one":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("cpus, args", [
    ("all", ["simulate", "--nodes", "51"]),
    ("all", ["simulate", "--nodes", "81"]),
    ("all", ["sweep", "--nodes", "61", "--param", "k_v", "--values", "1,2"]),
    ("one", ["simulate", "--nodes", "61"])],
    ids=["simulate-51", "simulate-81", "sweep-61", "simulate-61-one-cpu"])
def test_the_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, cpus, args):
    # n = 100 to 160, the dense kernels.  On two CPUs or more a simulate run
    # steps in a forked child and a sweep's members in pool workers, each
    # stepping in-process; on one CPU the run steps in-process.  Where the
    # dense inverse was np.linalg.inv's, M = 61's files differed
    if cpus == "one" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity to pin a run to one CPU")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        _python(_PINNED_LAUNCHER, cpus, *args, "--preset", "cantilever_dampers",
                "--out", out, OPENBLAS_NUM_THREADS=threads)
        digests.append({str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).digest()
                        for path in out.rglob("*") if path.is_file()})
    assert digests[0] and digests[0] == digests[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM and ru_maxrss in KiB are Linux's")
def test_bounds_peak_memory_does_not_grow_with_the_history(tmp_path):
    # Peak RSS of whole `bounds` runs on the damper-only preset, whose window
    # needs a full run.  At M = 641 and dt = h/10 the run has 12801 levels of
    # 1280 DOFs: a stored history would be 125 MiB.  Both sizes compared
    # are above fem.DENSE_MAX_N, so both load scipy (about 26 MiB); M = 41
    # steps with numpy alone and peaks at 33.2 MiB.
    # Streamed, on a 2-core x86-64 Linux box: stepped in a forked child,
    # M = 641 peaked 1.5 MiB above M = 161 (57.8 against 56.3 MiB, both the
    # child's; this process peaked at 42.5 against 34.9 MiB), and in-process
    # on one CPU 7.9 MiB above it (70.8 against 62.9 MiB).  Storing the
    # history put M = 641 135 MiB above M = 41.
    prob = pb.preset("mast_constant")
    levels = _mesh_grid(prob, 641, 10.0)[1].step_count
    assert levels * 2 * 640 * 8 >= 125 * 2**20   # the history a stored run would hold
    peaks = {nodes: _peak_mib(["bounds", "--preset", "mast_constant", "--nodes", str(nodes),
                               "--ratio", "10"], tmp_path / str(nodes)) for nodes in (161, 641)}
    assert peaks[641] - peaks[161] < 40.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM and ru_maxrss in KiB are Linux's")
def test_verify_peak_memory_does_not_grow_with_the_history(tmp_path):
    # At M = 641 and dt = h/10 test_NE1 has 9601 levels of 1280 DOFs: the
    # stored history is 94 MiB, and the stored errors put M = 641 515 MiB
    # above M = 41 (579.0 against 63.6 MiB).  Both sizes compared are above
    # fem.DENSE_MAX_N, so both load scipy (about 26 MiB); M = 41 steps with
    # numpy alone and peaks at 32.9 MiB.
    # Streamed, on a 2-core x86-64 Linux box: stepped in a forked child,
    # M = 641 peaked 1.6 MiB above M = 161 (57.7 against 56.1 MiB, both the
    # child's; this process peaked at 35.2 against 32.8 MiB), and in-process
    # on one CPU 2.8 MiB above it (63.7 against 60.9 MiB).
    prob = pb.preset("test_NE1")
    levels = _mesh_grid(prob, 641, 10.0)[1].step_count
    assert levels * 2 * 640 * 8 >= 90 * 2**20   # the history a stored run would hold
    peaks = {nodes: _peak_mib(["verify", "--preset", "test_NE1", "--nodes", str(nodes),
                               "--ratio", "10"], tmp_path / str(nodes)) for nodes in (161, 641)}
    assert peaks[641] - peaks[161] < 20.0


def test_no_command_stores_a_run(tmp_path, monkeypatch):
    def stored(*args, **kwargs):
        raise AssertionError("a command stored a run")

    monkeypatch.setattr(stepper, "run", stored)
    monkeypatch.setattr(stepper.TimeStepper, "run", stored)
    small = ["--nodes", "9", "--ratio", "10"]
    for args in (["validate", "--preset", "mast_constant"],
                 ["simulate", "--preset", "mast_constant", *small],
                 ["bounds", "--preset", "mast_constant", *small],
                 ["verify", "--preset", "test_NE1", *small],
                 ["convergence", "--preset", "test_NE1", *small],
                 ["convergence", "--preset", "cantilever_spring", *small],
                 ["sweep", "--preset", "mast_constant", "--param", "k_v", "--values", "1,2",
                  *small]):
        out = [] if args[0] == "validate" else ["--out", str(tmp_path / args[0])]
        assert main([*args, *out]) == 0, args


def test_cli_import_loads_no_scipy_module():
    # fem imports LAPACK and the sparse product where they are first used
    code = ("import sys, beamstab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python(code).strip() == "[]"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a run steps in a child only by fork")
def test_the_reducing_parent_of_a_forked_run_loads_no_scipy_module(tmp_path):
    # the child factors the step matrices and steps, here with the banded
    # kernels, which load scipy; this process reduces the windows with
    # numpy alone
    code = ("import sys, beamstab.cli as cli, beamstab.fem as fem\n"
            "cli._usable_cpus = lambda: 2\n"
            "fem.DENSE_MAX_N = 0\n"
            "print([cli.main([command, '--preset', 'mast_constant', '--nodes', '11',\n"
            "                 '--ratio', '10', '--out', sys.argv[1] + '/' + command])\n"
            "       for command in ('bounds', 'simulate')],\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python(code, tmp_path).splitlines()[-1] == "[0, 0] []"


def test_a_small_run_loads_no_scipy_module(tmp_path):
    # up to fem.DENSE_MAX_N DOFs (M <= 81) the dense numpy kernels step, so
    # no process of such a run imports scipy; on one CPU that is this one.
    # Above it the banded kernels load scipy, so the switch is what keeps
    # it out.
    code = ("import sys, beamstab.cli as cli\n"
            "cli._usable_cpus = lambda: 1\n"
            "out, nodes, commands = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
            "runs = {'simulate': ['--preset', 'cantilever_dampers'],\n"
            "        'bounds': ['--preset', 'mast_constant'],\n"
            "        'sweep': ['--preset', 'cantilever_dampers', '--param', 'k_v',\n"
            "                  '--values', '1,2']}\n"
            "print([cli.main([command, *runs[command], '--nodes', nodes, '--ratio', '10',\n"
            "                 '--out', f'{out}/{command}']) for command in commands],\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    small = _python(code, tmp_path / "41", 41, "simulate", "bounds", "sweep").splitlines()[-1]
    assert small == "[0, 0, 0] []"
    large = _python(code, tmp_path / "161", 161, "bounds").splitlines()[-1]
    assert large.startswith("[0] [") and "'scipy.linalg'" in large


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_failed_run_removes_only_the_directories_it_made(tmp_path, capsys, command):
    # lambda = 1 lies in (0, 1/beta0) but above mast_constant's own window
    # (0.0399 here), so every run steps and then fails with exit 3
    args = [command, "--preset", "mast_constant", "--nodes", "11", "--ratio", "10",
            "--lambda", "1"]
    if command == "sweep":
        args += ["--param", "k_v", "--values", "1,2"]
    assert main([*args, "--out", str(tmp_path / "new" / "out")]) == 3
    assert "lambda must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("kept\n")
    assert main([*args, "--out", str(existing)]) == 3
    assert os.listdir(existing) == ["keep.txt"]


@pytest.mark.parametrize("writer, command", [
    ("_write_json", "bounds"), ("_write_table", "verify"), ("_write_table", "convergence")])
def test_a_failed_write_publishes_nothing(tmp_path, monkeypatch, capsys, writer, command):
    # every artifact is written under a temporary name: a write that fails
    # part-way leaves no artifact, and the new --out directory is gone
    def broken(*args):
        with open(args[-1], "w") as fh:   # the path
            fh.write("{\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, broken)
    args = [command, "--preset", "test_NE1", "--nodes", "11", "--ratio", "10"]
    assert main([*args, "--out", str(tmp_path / "new" / "out")]) == 3
    assert capsys.readouterr().err == "usage error: cannot write: disk full\n"
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main([*args, "--out", str(existing)]) == 3
    assert capsys.readouterr().err == "usage error: cannot write: disk full\n"
    assert os.listdir(existing) == []


def test_bounds_command_undamped_exits_one(tmp_path, capsys):
    undamped = dataclasses.replace(pb.preset("cantilever_spring"),
                                   mu=pb.CoefficientField.constant(0.0))
    assert main(["bounds", "--problem", _write(tmp_path, undamped),
                 "--out", str(tmp_path / "out")]) == 1
    assert "k_a + k_v + mu0" in capsys.readouterr().err


@pytest.mark.parametrize("owner, name, nodes", [
    pytest.param(stepper.TimeStepper, "blocks", 9, id="blocks"),
    # the factor class each size uses: n = 16 is dense, n = 320 banded
    pytest.param(fem.DenseCholesky, "__init__", 9, id="factor"),
    pytest.param(fem.BandedCholesky, "__init__", 161, id="factor-banded")])
def test_numerical_failure_exits_two(tmp_path, monkeypatch, capsys, forks, owner, name, nodes):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("factorization failed")

    # raised in the stepping child, which also factors the step matrices,
    # and re-raised here with its type and text
    monkeypatch.setattr(owner, name, boom)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "test_NE1", "--nodes", str(nodes),
                 "--ratio", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: factorization failed\n"
    assert not out.exists() and len(forks) == 1


def test_a_second_cpu_steps_each_run_in_one_child_with_the_same_bytes(
        tmp_path, monkeypatch, forks):
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        out = tmp_path / str(cpus)
        for command in ("bounds", "simulate"):
            assert main([command, "--preset", "mast_constant", "--nodes", "11",
                         "--ratio", "10", "--out", str(out / command)]) == 0
        assert len(forks) == (0 if cpus == 1 else 2)
        runs[cpus] = _files(out)
    assert sorted(runs[1]) == ["bounds/bounds.json", "simulate/bounds.json",
                               "simulate/energy.csv", "simulate/trace.csv"]
    assert runs[2] == runs[1]


@pytest.mark.parametrize("args, runs", [
    (["simulate", "--preset", "cantilever_dampers"], 1),
    (["bounds", "--preset", "mast_constant"], 1),
    (["verify", "--preset", "test_NE1"], 1),
    (["convergence", "--preset", "cantilever_dampers", "--levels", "3"], 3),
    (["sweep", "--preset", "cantilever_dampers", "--param", "k_v", "--values", "2"], 1)],
    ids=["simulate", "bounds-damper-only", "verify", "convergence", "sweep-one-value"])
def test_a_second_cpu_steps_every_run_through_forked_blocks(tmp_path, monkeypatch, args, runs):
    # cli._steps_ahead is the one stepping rule: on two CPUs this process
    # asks forked_blocks for each run's windows and a child steps them with
    # blocks(); on one CPU this process steps every run itself, to the same bytes
    files = {}
    for cpus in (2, 1):
        log, out = tmp_path / f"steps_{cpus}.txt", tmp_path / str(cpus)
        with monkeypatch.context() as patch:
            _log_stepping(patch, log)
            patch.setattr(cli, "_usable_cpus", lambda: cpus)
            assert main([*args, "--nodes", "9", "--ratio", "10", "--out", str(out)]) == 0
        steps, files[cpus] = _stepped(log), _files(out)
        if cpus == 2:
            assert steps[0::2] == [("forked_blocks", os.getpid())] * runs
            children = [pid for name, pid in steps[1::2] if name == "blocks"]
            assert len(children) == len(set(children)) == runs and os.getpid() not in children
        else:
            assert steps == [("blocks", os.getpid())] * runs
    assert files[2] == files[1] and files[1]


@pytest.mark.parametrize("failure, nodes", [
    # at M = 9 the whole run fits in the pipe; at M = 161 (17 MB) the child
    # is blocked on a full pipe when the consumer fails
    pytest.param(RuntimeError, 9, id="RuntimeError"),
    pytest.param(KeyboardInterrupt, 9, id="KeyboardInterrupt"),
    pytest.param(RuntimeError, 161, id="RuntimeError-161"),
    pytest.param(KeyboardInterrupt, 161, id="KeyboardInterrupt-161")])
def test_a_failing_consumer_reaps_the_stepping_child(monkeypatch, forks, failure, nodes):
    real_add = diagnostics.EnergyAccumulator.add

    def add(self, rows, first=0):
        if first > CHUNK_LEVELS:   # the child is stepping the windows after it
            raise failure("consumer failed")
        real_add(self, rows, first)

    monkeypatch.setattr(diagnostics.EnergyAccumulator, "add", add)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    open_fds = len(os.listdir("/dev/fd"))
    prob = pb.preset("mast_constant")
    with _time_limit(60), pytest.raises(failure, match="consumer failed"):
        cli._streamed_energy(prob, *_mesh_grid(prob, nodes, 20.0))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):   # no child left, not even a zombie
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/dev/fd")) == open_fds


def test_back_to_back_forked_runs_all_succeed(tmp_path, monkeypatch, forks):
    # The child sends its end marker and exits while the parent still
    # reduces the last window; the pause there makes sure it has exited, so
    # the parent reads the marker from a pipe whose writer is gone.
    args = ["bounds", "--preset", "mast_constant", "--nodes", "21", "--ratio", "10"]
    levels = _mesh_grid(pb.preset("mast_constant"), 21, 10.0)[1].step_count
    real_add = diagnostics.EnergyAccumulator.add

    def add(self, rows, first=0):
        real_add(self, rows, first)
        if first + len(rows) == levels:
            time.sleep(0.01)

    monkeypatch.setattr(diagnostics.EnergyAccumulator, "add", add)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with _time_limit(120):
        codes = [main(args + ["--out", str(tmp_path)]) for _ in range(30)]
    assert codes == [0] * 30 and len(forks) == 30


@pytest.mark.parametrize("flag, value", [
    ("--ratio", "0"), ("--ratio", "-40"), ("--ratio", "inf"),
    ("--dt", "nan"), ("--dt", "0"), ("--dt", "-0.01")])
def test_step_rule_must_be_positive_and_finite(tmp_path, capsys, flag, value):
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "9", flag, value,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        f"usage error: argument {flag}: must be positive and finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, dt, final_time", [
    (["simulate", "--preset", "cantilever_free", "--nodes", "5", "--dt", "1e-320"], "1e-320", "2.0"),
    (["simulate", "--preset", "cantilever_free", "--nodes", "5", "--dt", "5e-324"], "5e-324", "2.0"),
    (["simulate", "--preset", "cantilever_free", "--nodes", "5", "--ratio", "1e308"],
     "2.5e-309", "2.0"),
    (["bounds", "--preset", "cantilever_dampers", "--dt", "1e-320"], "1e-320", "2.0"),
    (["verify", "--preset", "test_NE1", "--nodes", "5", "--dt", "1e-320"], "1e-320", "1.5"),
    (["convergence", "--preset", "cantilever_free", "--nodes", "5", "--dt", "5e-324"],
     "5e-324", "2.0")],
    ids=["simulate-dt", "simulate-least-dt", "simulate-ratio", "bounds", "verify", "convergence"])
def test_a_step_too_small_for_the_horizon_is_a_usage_error(
        tmp_path, monkeypatch, capsys, args, dt, final_time):
    # final_time / dt overflows to inf, so the grid's level count is refused
    # before anything is allocated or stepped (bounds on a theorem-1 problem
    # never steps, but builds its grid all the same)
    _no_stepping(monkeypatch)
    assert main([*args, "--out", str(tmp_path / "new" / "out")]) == 3
    assert capsys.readouterr().err == (f"usage error: dt = {dt} is too small for final_time"
                                       f" = {final_time}: their ratio overflows\n")
    assert not (tmp_path / "new").exists()


def test_a_decimation_beyond_int64_writes_the_first_and_last_levels(tmp_path):
    # 2^63 - 1 is the largest step np.arange takes as an integer; the writer
    # clamps any larger one to the last level, which writes the same levels
    traces = []
    for decimate in (2**63 - 1, 2**63):
        out = tmp_path / str(decimate)
        assert main(["simulate", "--preset", "cantilever_free", "--nodes", "5",
                     "--decimate", str(decimate), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    _, grid = _mesh_grid(pb.preset("cantilever_free"), 5)
    # after the header, five lines (one per node) a written level
    times = [line.split(b", ")[0] for line in traces[0].splitlines()[1::5]]
    assert times == [b"0", b"%.17g" % grid.times[-1]]


def test_the_cli_steps_at_h_over_40_by_default(tmp_path, monkeypatch):
    # the dt each command's grid is built from: bounds on a theorem-1
    # problem builds it and steps nothing
    prob = pb.preset("test_NE1")
    requested, from_dt = [], stepper.TimeGrid.from_dt

    def recorded(final_time, dt):
        requested.append(dt)
        return from_dt(final_time, dt)

    monkeypatch.setattr(stepper.TimeGrid, "from_dt", recorded)
    for flags in ([], ["--ratio", "10"], ["--dt", "0.01"], ["--nodes", "11"]):
        assert main(["bounds", "--preset", "test_NE1", *flags, "--out", str(tmp_path)]) == 0
    assert requested == [prob.length / 40 / 40.0, prob.length / 40 / 10.0, 0.01,
                         prob.length / 10 / 40.0]


@pytest.mark.parametrize("args, error", [
    (["--preset", "test_NE1", "--decimate", "0"], "argument --decimate: must be >= 1; got 0"),
    (["--preset", "test_NE1", "--decimate", "-2"], "argument --decimate: must be >= 1; got -2"),
    # outside the theorem-1 window, which needs no run
    (["--preset", "cantilever_dampers", "--lambda", "5"],
     "lambda must satisfy 0 < lambda < lambda_max = 0.5; got 5"),
    # outside (0, 1/beta0), which holds every damper-only window; a lambda
    # inside it but above the run's own window can only be refused after
    # the run (test_a_failed_run_removes_only_the_directories_it_made)
    (["--preset", "mast_constant", "--lambda", "-1"], "penalty weight must be positive; got -1")],
    ids=["0", "-2", "cantilever_dampers-lambda-5", "mast_constant-lambda--1"])
def test_decimate_must_be_positive_and_leaves_no_directory(tmp_path, capsys, args, error):
    out = tmp_path / "d" / "x"
    assert main(["simulate", *args, "--nodes", "9", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not (tmp_path / "d").exists()


def _no_stepping(monkeypatch):
    def stepped(*args, **kwargs):
        raise AssertionError("a run was stepped")

    monkeypatch.setattr(stepper.TimeStepper, "blocks", stepped)
    monkeypatch.setattr(stepper.TimeStepper, "forked_blocks", stepped)


@pytest.mark.parametrize("lam, error", [
    ("-1", "penalty weight must be positive; got -1"),
    ("nan", "penalty weight must be positive; got nan"),
    ("5", "penalty weight must satisfy lam < 1/beta0 = 2; got 5")], ids=["-1", "nan", "5"])
def test_a_damper_only_lambda_no_run_can_admit_is_refused_before_stepping(
        tmp_path, monkeypatch, capsys, lam, error):
    # every damper-only window lies in (0, 1/beta0), so a lambda outside it
    # is refused before anything steps, and no sweep member starts
    _no_stepping(monkeypatch)
    out = tmp_path / "out"
    assert main(["bounds", "--preset", "mast_constant", "--nodes", "321",
                 "--lambda", lam, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not out.exists()
    out.mkdir()
    assert main(["sweep", "--preset", "mast_constant", "--param", "k_v", "--values", "1,2,3",
                 "--lambda", lam, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("out", ["file", "file/sub", "", "new/" + "x" * 300],
                         ids=["file", "under-a-file", "empty", "name-too-long"])
@pytest.mark.parametrize("args", [
    ["simulate", "--preset", "test_NE1"],
    ["sweep", "--preset", "cantilever_dampers", "--param", "k_v", "--values", "1,2"],
    ["bounds", "--preset", "mast_constant"],
    ["verify", "--preset", "test_NE1"],
    ["convergence", "--preset", "test_NE1"]], ids=lambda args: args[0])
def test_an_out_that_cannot_be_made_a_directory_is_refused_before_stepping(
        tmp_path, monkeypatch, capsys, args, out):
    # a file in the way, a path under a file, no name, or a name too long
    # (after new/ was made): one usage error line, and nothing left behind
    _no_stepping(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    assert main([*args, "--nodes", "9", "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot make the output directory {out!r}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert os.listdir(tmp_path) == ["file"] and (tmp_path / "file").read_text() == "kept\n"


_WRITING = {   # each writing command, on a small mesh, and the artifacts it writes
    "simulate": (["simulate", "--preset", "cantilever_free"],
                 ("trace.csv", "energy.csv", "bounds.json")),
    "bounds": (["bounds", "--preset", "mast_constant"], ("bounds.json",)),
    "verify": (["verify", "--preset", "test_NE1"], ("errors.csv",)),
    "convergence": (["convergence", "--preset", "cantilever_dampers"], ("convergence.csv",)),
    "sweep": (["sweep", "--preset", "cantilever_dampers", "--param", "k_v", "--values", "1,2"],
              ("sweep.csv",)),
}


def _refused_write(tmp_path, monkeypatch, capsys, command, taken, artifact):
    """Run ``command`` into ``tmp_path / "out"`` with the path ``taken``
    (relative to it) made a directory, and check that it exits 3 with one
    line that names ``artifact`` before anything steps, and leaves nothing
    but what was there."""
    _no_stepping(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)   # every run and member here
    out = tmp_path / "out"
    (out / taken / "x").mkdir(parents=True)
    before = sorted(out.rglob("*"))
    assert main([*_WRITING[command][0], "--nodes", "5", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot write: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert f"'{out / artifact}'" in captured.err and ".tmp" not in captured.err
    assert sorted(out.rglob("*")) == before   # no temporary left, no artifact in place


@pytest.mark.parametrize("command, taken", [
    *[(command, name) for command, (_, names) in _WRITING.items() for name in names],
    ("sweep", "k_v_1/trace.csv"), ("sweep", "k_v_1/bounds.json")])
def test_an_artifact_whose_name_is_a_directory_is_refused_before_stepping(
        tmp_path, monkeypatch, capsys, command, taken):
    _refused_write(tmp_path, monkeypatch, capsys, command, taken, taken)


@pytest.mark.parametrize("command, name", [
    *[(command, names[-1]) for command, (_, names) in _WRITING.items()],
    ("sweep", "k_v_1/bounds.json")])
def test_a_temporary_that_cannot_be_created_is_refused_before_stepping(
        tmp_path, monkeypatch, capsys, command, name):
    # the last artifact's temporary name is taken, so the ones before it
    # were created and must be removed
    head, _, tail = name.rpartition("/")
    _refused_write(tmp_path, monkeypatch, capsys, command,
                   os.path.join(head, f".{tail}.{os.getpid()}.tmp"), name)


def test_usage_errors():
    assert main(["validate"]) == 3                               # no source
    assert main(["validate", "--preset", "nope"]) == 3           # unknown preset
    assert main(["simulate", "--preset", "test_NE1",
                 "--dt", "0.1", "--ratio", "10"]) == 3           # both step rules
    assert main(["simulate", "--preset", "test_NE1",
                 "--dt", "0.1", "--ratio", "40"]) == 3           # the default ratio too
    assert main(["validate", "--problem", "/no/such/file.json"]) == 3
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "2"]) == 3
    assert main(["nonsense"]) == 3


_OPTIONS = {   # what each command reads, and so all it accepts
    "validate": {"--preset", "--problem"},
    "simulate": {"--preset", "--problem", "--nodes", "--dt", "--ratio", "--lambda", "--out",
                 "--decimate"},
    "verify": {"--preset", "--nodes", "--dt", "--ratio", "--out"},
    "convergence": {"--preset", "--problem", "--nodes", "--dt", "--ratio", "--out", "--levels"},
    "sweep": {"--preset", "--problem", "--nodes", "--dt", "--ratio", "--lambda", "--out",
              "--param", "--values"},
    "bounds": {"--preset", "--problem", "--nodes", "--dt", "--ratio", "--lambda", "--out"},
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_each_command_accepts_only_the_options_it_reads(command):
    import argparse

    assert sum(map(len, _OPTIONS.values())) == 38
    subs = next(action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    accepted = {flag for action in subs.choices[command]._actions
                for flag in action.option_strings} - {"-h", "--help"}
    assert accepted == _OPTIONS[command]


@pytest.mark.parametrize("args", [
    ["validate", "--preset", "test_NE1", "--nodes", "99"],
    ["validate", "--preset", "test_NE1", "--dt", "0.01"],
    ["validate", "--preset", "test_NE1", "--ratio", "7"],
    ["validate", "--preset", "test_NE1", "--lambda", "-5"],
    ["validate", "--preset", "test_NE1", "--out", "out"],
    ["validate", "--preset", "test_NE1", "--lambda", "-5", "--nodes", "99", "--ratio", "7",
     "--out", "/dev/null/x"],
    ["verify", "--preset", "test_NE1", "--problem", "problem.json", "--out", "out"],
    ["verify", "--preset", "test_NE1", "--lambda", "-5", "--out", "out"],
    ["convergence", "--preset", "cantilever_spring", "--nodes", "5", "--lambda", "0.3",
     "--out", "out"],
    ["convergence", "--preset", "cantilever_spring", "--nodes", "5", "--lambda", "100",
     "--out", "out"]],
    ids=["validate-nodes", "validate-dt", "validate-ratio", "validate-lambda", "validate-out",
         "validate-all", "verify-problem", "verify-lambda", "convergence-lambda",
         "convergence-lambda-100"])
def test_an_option_the_command_does_not_read_is_a_usage_error(
        tmp_path, monkeypatch, capsys, args):
    # one line, before anything is read, stepped or written
    _no_stepping(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: --")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert os.listdir(tmp_path) == []


def _kill_in_child(parent):
    """SIGKILL this process unless it is ``parent``: as the OOM killer would."""
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def _fail_past_the_first_window(monkeypatch, where, fail):
    """Call ``fail()`` once a run is past its first window: where it steps
    (``where == "child"``, in ``TimeStepper.blocks``) or where a sweep
    member reduces (``"worker"``, in ``EnergyAccumulator.add``)."""
    if where == "child":
        real_blocks = stepper.TimeStepper.blocks

        def blocks(self):
            for first, window in real_blocks(self):
                if first > CHUNK_LEVELS:
                    fail()
                yield first, window

        monkeypatch.setattr(stepper.TimeStepper, "blocks", blocks)
    else:
        real_add = diagnostics.EnergyAccumulator.add

        def add(self, rows, first=0):
            if first > CHUNK_LEVELS:
                fail()
            real_add(self, rows, first)

        monkeypatch.setattr(diagnostics.EnergyAccumulator, "add", add)


@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_a_killed_worker_process_exits_four_and_leaves_nothing(
        tmp_path, monkeypatch, capsys, forks, command):
    # bounds: the forked stepping child dies after two windows; sweep: each
    # pool worker dies while it writes its member's trace.csv
    parent, out = os.getpid(), tmp_path / "new" / "out"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    _fail_past_the_first_window(monkeypatch, "child" if command == "bounds" else "worker",
                                lambda: _kill_in_child(parent))
    if command == "bounds":
        with _time_limit(60):
            code = main(["bounds", "--preset", "mast_constant", "--nodes", "21",
                         "--out", str(out)])
        message = "the stepping process was killed by signal 9"
        with pytest.raises(ChildProcessError):   # reaped: no child left, not even a zombie
            os.waitpid(-1, os.WNOHANG)
    else:
        code = _sweep(["--preset", "cantilever_dampers"], "k_v", "1,2", out, "--ratio", "20")
        message = "a sweep worker died: "
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"process failure: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.getpid() == parent and forks
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("where", ["simulate", "bounds", "child", "worker"])
def test_a_request_too_large_to_allocate_is_a_usage_error(
        tmp_path, monkeypatch, capsys, forks, where):
    # simulate, bounds: --dt 1e-17 asks this process for a grid of 2e17
    # levels (1.4 EiB), beyond any address space; child, worker: the forked
    # stepping child or a sweep's pool worker cannot allocate
    parent, out = os.getpid(), tmp_path / "new" / "out"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def out_of_memory():
        if os.getpid() != parent:
            raise MemoryError("Unable to allocate 7.00 EiB for an array")

    if where in ("simulate", "bounds"):
        _no_stepping(monkeypatch)
        code = main([where, "--preset", "cantilever_free", "--nodes", "5", "--dt", "1e-17",
                     "--out", str(out)])
    else:
        _fail_past_the_first_window(monkeypatch, where, out_of_memory)
        if where == "child":
            with _time_limit(60):
                code = main(["simulate", "--preset", "cantilever_free", "--nodes", "21",
                             "--out", str(out)])
        else:
            code = _sweep(["--preset", "cantilever_dampers"], "k_v", "1,2", out, "--ratio", "20")
        assert forks
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: not enough memory: Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "new").exists()
