"""Output checks for the benchmark workloads, from the paper's invariants.

Artifacts are checked against properties the paper guarantees rather than
byte digests, so a change that moves results at round-off level (and says
so) still passes:

* every artifact parses and every number in it is finite;
* ``bounds.json`` reports zero envelope violations and its (beta0, beta1)
  equal ``beamstab.beta_constants`` of the problem that was run;
* in ``energy.csv`` the dissipation integrals j_mu, j_a, j_v never decrease
  and E never rises by more than 1e-6 E(0) between levels (criterion 5);
* ``trace.csv`` has one row per (time level, node);
* ``sweep.csv`` has one row per swept value, in the order given.

Each check returns a list of error strings; an empty list means the run
passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import beamstab as bs

RATIO = 40.0                    # CLI default: dt = h_x / 40


def _read_csv(path, header: str) -> np.ndarray:
    """Numeric CSV with a fixed header -> (rows, cols) array, or ValueError."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        body = fh.read().strip()
    if first != header:
        raise ValueError(f"{path}: header {first!r}, expected {header!r}")
    cols = header.count(",") + 1
    rows = body.count("\n") + 1 if body else 0
    values = np.fromstring(body.replace("\n", ","), sep=",") if body else np.empty(0)
    if values.size != rows * cols:
        raise ValueError(f"{path}: {values.size} numbers parsed, expected {rows} x {cols}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite values")
    return values.reshape(rows, cols)


def _finite_json(path):
    def reject(token):
        raise ValueError(f"{path}: non-finite number {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def time_levels(problem: bs.BeamProblem, nodes: int) -> int:
    h_x = problem.length / (nodes - 1)
    return bs.TimeGrid.from_dt(problem.final_time, h_x / RATIO).step_count


def bounds_json(path, problem: bs.BeamProblem) -> list[str]:
    try:
        data = _finite_json(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if (data.get("beta0"), data.get("beta1")) != bs.beta_constants(problem):
        errors.append(f"{path}: (beta0, beta1) = ({data.get('beta0')}, {data.get('beta1')}),"
                      f" expected {bs.beta_constants(problem)}")
    envelope = data.get("envelope")
    if envelope is None:
        errors.append(f"{path}: no envelope check")
    elif any(envelope["violations"].values()):
        errors.append(f"{path}: envelope violations {envelope['violations']}")
    return errors


def simulation(out_dir, problem: bs.BeamProblem, nodes: int) -> list[str]:
    """Artifacts of one ``simulate`` run (or one sweep member)."""
    errors = bounds_json(os.path.join(out_dir, "bounds.json"), problem)
    try:
        trace = _read_csv(os.path.join(out_dir, "trace.csv"), "t, node, u, u_x")
        energy = _read_csv(os.path.join(out_dir, "energy.csv"),
                           "t, E, J, L, j_mu, j_a, j_v, residual")
    except (OSError, ValueError) as exc:
        return errors + [str(exc)]
    expected_rows = time_levels(problem, nodes) * nodes
    if trace.shape[0] != expected_rows:
        errors.append(f"{out_dir}: trace.csv has {trace.shape[0]} rows, expected {expected_rows}")
    if not all(np.all(np.diff(energy[:, k]) >= 0.0) for k in (4, 5, 6)):
        errors.append(f"{out_dir}: a dissipation integral decreases")
    worst_rise = float(np.max(np.diff(energy[:, 1]))) / bs.initial_energy(problem)
    if not worst_rise <= 1e-6:
        errors.append(f"{out_dir}: E rises by {worst_rise:.3e} E(0) > 1e-6 E(0)")
    return errors


def sweep(out_dir, problem: bs.BeamProblem, param: str, values, nodes: int) -> list[str]:
    """``sweep.csv`` plus the artifacts of every member run."""
    path = os.path.join(out_dir, "sweep.csv")
    try:
        with open(path) as fh:
            rows = [line.rstrip("\n").split(", ") for line in fh][1:]
        cells = [[float(c) for c in row[1:]] for row in rows]
    except (OSError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if [row[0] for row in rows] != [param] * len(values) \
            or [row[0] for row in cells] != list(values):
        errors.append(f"{path}: rows do not match the {len(values)} swept values")
    if not all(math.isfinite(c) for row in cells for c in row):
        errors.append(f"{path}: non-finite values")
    for value in values:
        member = dataclasses.replace(
            problem, boundary=dataclasses.replace(problem.boundary, **{param: value}))
        errors += simulation(os.path.join(out_dir, f"{param}_{value:g}"), member, nodes)
    return errors


def same_tree(a, b) -> list[str]:
    """Byte-identity of two output directories."""
    def files(root):
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, fs in os.walk(root) for f in fs)

    names = files(a)
    if names != files(b):
        return [f"{a} and {b} hold different files"]
    errors = []
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                errors.append(f"{name} differs between the traced and untraced runs")
    return errors
