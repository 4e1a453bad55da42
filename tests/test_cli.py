"""Command-line interface: commands, exit codes, artifacts, idempotence."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from beamstab import problem as pb
from beamstab.cli import main


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

    monkeypatch.setattr(cli.stepper, "run", boom)
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
