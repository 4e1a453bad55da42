"""Command-line interface: commands, exit codes, artifacts, idempotence."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import beamstab.cli as cli
from beamstab import bounds, diagnostics, stepper
from beamstab import problem as pb
from beamstab.cli import main
from beamstab.fem import CHUNK_LEVELS


def _write(tmp_path, prob, name="problem.json"):
    path = tmp_path / name
    pb.save_problem(prob, path)
    return str(path)


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


def test_simulate_blow_up_leaves_no_partial_artifacts(tmp_path, capsys):
    # the 1e-300 exp(1000 t) end shear overflows near t = 0.71, so several
    # blocks of the trace are written before the run fails
    prob = dataclasses.replace(
        pb.preset("cantilever_dampers"),
        forcing=pb.BoundaryForcing(g_Q=pb.TimeFunction.exponential(1e-300, 1000.0)))
    problem_file = _write(tmp_path, prob)
    good, bad = tmp_path / "good", tmp_path / "bad"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--problem", problem_file, "--nodes", "9",
                     "--dt", "0.0025", "--out", str(bad)]) == 2
    assert "non-finite values at t = " in capsys.readouterr().err
    assert os.listdir(bad) == []
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "9", "--ratio", "10",
                 "--out", str(good)]) == 0
    assert sorted(os.listdir(good)) == ["bounds.json", "energy.csv", "trace.csv"]


def _assert_same_energy(stored, streamed):
    for field in dataclasses.fields(stored):
        a, b = getattr(stored, field.name), getattr(streamed, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("explicit_lam", [False, True])
@pytest.mark.parametrize("mode", ["paper", "basis"])
@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_streamed_pass_is_bitwise_the_stored_energy_and_window(name, mode, explicit_lam):
    prob = pb.preset(name)
    config = cli.RunConfig(name, True, nodes=9, ratio=20.0, mode=mode)
    trace = stepper.run(prob, config.mesh(prob), config.grid(prob))
    assert trace.grid.step_count > 2 * CHUNK_LEVELS + 1
    lam_max, _ = bounds.lambda_window(prob, trace)
    if explicit_lam:
        config.lam = 0.5 * lam_max
    streamed = cli._streamed_energy(prob, config)
    _assert_same_energy(diagnostics.energy(trace, lam=config.lam, mode=mode), streamed)
    assert streamed.lambda_max == lam_max
    assert streamed.window_error is None


@pytest.mark.parametrize("lam", [None, 0.01])
@pytest.mark.parametrize("case", ["dead_tip", "undamped"])
def test_streamed_pass_fails_the_window_like_the_stored_one(case, lam):
    base = pb.preset("mast_constant")
    if case == "dead_tip":  # the tip starts at rest
        prob = dataclasses.replace(base, initial=dataclasses.replace(
            base.initial, u1=pb.SpatialProfile.polynomial((0.0,))))
    else:
        prob = dataclasses.replace(base, boundary=pb.BoundaryParams())
    config = cli.RunConfig("", False, nodes=9, ratio=20.0, lam=lam)
    trace = stepper.run(prob, config.mesh(prob), config.grid(prob))
    with pytest.raises(ValueError) as window:
        bounds.lambda_window(prob, trace)
    if lam is None:
        streamed = cli._streamed_energy(prob, config)
        _assert_same_energy(diagnostics.energy(trace, mode=config.mode), streamed)
        assert streamed.lambda_max is None
        assert streamed.window_error == str(window.value)
    else:
        with pytest.raises(ValueError) as stored:
            diagnostics.energy(trace, lam=lam)
        with pytest.raises(ValueError) as streamed:
            cli._streamed_energy(prob, config)
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


def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # forcing two workers also runs the pooled path on a one-CPU machine
    real_pipeline = cli._simulate_pipeline
    runs, pids = {}, {}
    for workers in (1, 2):
        log = tmp_path / f"pids_{workers}.txt"

        def logged(prob, config, out_dir, log=log):
            with open(log, "a") as fh:  # one short append per member
                fh.write(f"{os.getpid()}\n")
            return real_pipeline(prob, config, out_dir)

        monkeypatch.setattr(cli, "_simulate_pipeline", logged)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        out = tmp_path / f"workers_{workers}"
        assert _sweep(["--preset", "cantilever_dampers"], "k_v", "4,0,2,1", out,
                      "--ratio", "10") == 0
        runs[workers], pids[workers] = _files(out), log.read_text().split()

    members = [f"k_v_{v}/{name}" for v in "4021"
               for name in ("bounds.json", "energy.csv", "trace.csv")]
    assert sorted(runs[1]) == sorted(members + ["sweep.csv"])
    assert runs[2] == runs[1]
    rows = runs[2]["sweep.csv"].decode().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [4.0, 0.0, 2.0, 1.0]
    assert pids[1] == [str(os.getpid())] * 4
    assert len(pids[2]) == 4 and str(os.getpid()) not in pids[2]
    assert 1 <= len(set(pids[2])) <= 2


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


def test_sweep_member_that_fails_to_assemble_exits_three_through_the_pool(
        tmp_path, monkeypatch, capsys):
    # mu scaled by inf is not finite, so that member's assemble() rejects it
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert _sweep(["--preset", "cantilever_dampers"], "mu_scale", "1,inf,2",
                  tmp_path / "out", "--ratio", "10") == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot assemble an invalid problem")
    assert "mu: not finite" in err and "Traceback" not in err


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


def test_bounds_command_theorem2_runs_a_simulation(tmp_path):
    out = tmp_path / "out"
    assert main(["bounds", "--preset", "mast_constant", "--nodes", "11",
                 "--ratio", "10", "--out", str(out)]) == 0
    data = json.loads((out / "bounds.json").read_text())
    assert data["regime"] == "theorem2"
    assert data["envelope"]["violations"]["decay"] == 0


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_bounds_peak_memory_does_not_grow_with_the_history(tmp_path):
    # Peak RSS of whole `bounds` processes (os.wait4) on the damper-only
    # preset, whose window needs a full run.  At M = 641 and dt = h/10 the
    # run has 12801 levels of 1280 DOFs: a stored history would be 125 MiB.
    # Streamed, M = 641 peaked 9.8 MiB above M = 41 (70.0 against 60.2 MiB
    # on a 2-core x86-64 Linux box); storing the history put it 135 MiB above.
    import beamstab

    src = os.path.dirname(os.path.dirname(os.path.abspath(beamstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def peak_mib(nodes):
        proc = subprocess.Popen(
            [sys.executable, "-m", "beamstab.cli", "bounds", "--preset", "mast_constant",
             "--nodes", str(nodes), "--ratio", "10", "--out", str(tmp_path / str(nodes))],
            env=env, stdout=subprocess.DEVNULL)
        killer = threading.Timer(120.0, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_maxrss / 1024.0

    prob = pb.preset("mast_constant")
    levels = cli.RunConfig("mast_constant", True, nodes=641, ratio=10.0).grid(prob).step_count
    assert levels * 2 * 640 * 8 >= 125 * 2**20   # the history a stored run would hold
    assert peak_mib(641) - peak_mib(41) < 40.0


def test_cli_import_leaves_interpolate_and_integrate_unloaded():
    import beamstab

    src = os.path.dirname(os.path.dirname(os.path.abspath(beamstab.__file__)))
    code = ("import sys, beamstab.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.integrate') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_bounds_command_undamped_exits_one(tmp_path, capsys):
    undamped = dataclasses.replace(pb.preset("cantilever_spring"),
                                   mu=pb.CoefficientField.constant(0.0))
    assert main(["bounds", "--problem", _write(tmp_path, undamped),
                 "--out", str(tmp_path / "out")]) == 1
    assert "k_a + k_v + mu0" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, monkeypatch, capsys):
    import numpy as np

    import beamstab.cli as cli

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("factorization failed")

    monkeypatch.setattr(cli.stepper.TimeStepper, "blocks", boom)
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "9",
                 "--ratio", "10", "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_usage_errors():
    assert main(["validate"]) == 3                               # no source
    assert main(["validate", "--preset", "nope"]) == 3           # unknown preset
    assert main(["validate", "--preset", "test_NE1",
                 "--dt", "0.1", "--ratio", "10"]) == 3           # both step rules
    assert main(["validate", "--problem", "/no/such/file.json"]) == 3
    assert main(["simulate", "--preset", "test_NE1", "--nodes", "2"]) == 3
    assert main(["nonsense"]) == 3
