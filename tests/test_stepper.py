"""Time integration: startup, stepping, convergence, stability."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hand_recurrence, scalar_system, step, step_levels, trapezoidal_start

import beamstab as bs
from beamstab import fem
from beamstab.fem import CHUNK_LEVELS, combine, interpolate_profile, windows
from beamstab.stepper import SolutionTrace, TimeGrid, TimeStepper


def _nodal_u(trace):
    hist = trace.dof_history
    return np.concatenate([np.zeros((hist.shape[0], 1)), hist[:, 0::2]], axis=1)


def _rest_problem():
    from beamstab.problem import InitialData, SpatialProfile

    return dataclasses.replace(
        bs.preset("cantilever_dampers"),
        initial=InitialData(u0=SpatialProfile.polynomial((0.0,)),
                            u1=SpatialProfile.polynomial((0.0,))))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spacing_and_endpoint():
    grid = TimeGrid.from_dt(1.5, 1 / 1600)
    assert grid.step_count == 2401
    assert grid.dt == pytest.approx(1 / 1600, rel=1e-15)
    assert grid.times[-1] == 1.5


def test_grid_needs_four_levels():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 3)


# ---------------------------------------------------------------------------
# startup
# ---------------------------------------------------------------------------

def test_rest_state_stays_at_rest():
    trace = bs.run(_rest_problem(), bs.Mesh(1.0, 7), TimeGrid(1.0, 51))
    assert np.all(trace.dof_history == 0.0)


def test_startup_interpolates_initial_data():
    prob = bs.preset("test_NE1")
    system = bs.assemble(prob, bs.Mesh(1.0, 9))
    stepper = TimeStepper(system, TimeGrid.from_dt(1.5, 1e-3))
    u0 = stepper.startup()[0]
    v0 = interpolate_profile(prob.initial.u1, system.mesh)
    nodes = system.mesh.nodes[1:]
    assert u0[0::2] == pytest.approx(nodes**2, abs=1e-14)
    assert u0[1::2] == pytest.approx(2 * nodes, abs=1e-14)
    assert v0[0::2] == pytest.approx(-2 * nodes**2, abs=1e-14)
    assert np.array_equal(u0, interpolate_profile(prob.initial.u0, system.mesh))


@pytest.mark.parametrize("nodes", [41, 321])
def test_startup_is_the_acceleration_form_trapezoidal_rule(nodes, kernels):
    # the start carries no acceleration: it is the trapezoidal rule with
    # M a_k = F_k - C v_k - K u_k put into the update, which changes only
    # the rounding.  Measured worst, max |dU| / max |U| over the five
    # presets and both kernels at dt = h/40: 8.1e-14 at M = 41 and 1.2e-11
    # at M = 321 (mast_constant, dense); the bound is ten times the worse.
    for name in bs.PRESET_NAMES:
        prob = bs.preset(name)
        mesh = bs.Mesh(prob.length, nodes)
        system = bs.assemble(prob, mesh)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40)
        reference = np.array(trapezoidal_start(system, grid))
        for kind in ("dense", "banded"):
            kernels(kind)
            levels = np.array(TimeStepper(system, grid).startup())
            deviation = np.max(np.abs(levels - reference))
            assert deviation <= 10 * 1.2e-11 * np.max(np.abs(reference)), (name, kind)


def test_a_run_factors_two_matrices(monkeypatch, kernels):
    # the step matrix and the startup matrix, once each
    calls = []
    factor = fem.BandedSymmetricMatrix.factor
    monkeypatch.setattr(fem.BandedSymmetricMatrix, "factor",
                        lambda self: calls.append(self) or factor(self))
    prob = bs.preset("cantilever_dampers")
    system = bs.assemble(prob, bs.Mesh(prob.length, 9))
    for kind in ("dense", "banded"):
        kernels(kind)
        calls.clear()
        TimeStepper(system, TimeGrid(prob.final_time, 2 * CHUNK_LEVELS + 7)).run()
        assert len(calls) == 2, kind


# ---------------------------------------------------------------------------
# scalar three-level recurrence oracle
# ---------------------------------------------------------------------------

def test_scalar_reduction_matches_hand_recurrence():
    m, c, k = 2.0, 0.3, 1.7
    dt = 0.05
    stepper = TimeStepper(scalar_system(m, c, k), TimeGrid.from_dt(1.0, dt))
    start = [1.0, 0.9, 0.85]
    u = hand_recurrence(m, c, k, dt, start, 12)
    mine = step_levels(stepper, [np.array([v]) for v in start], 12)
    for a, b in zip(u, mine, strict=True):
        assert abs(a - b[0]) <= 1e-12 * max(1.0, abs(a))


def test_scalar_oscillator_one_step_accuracy():
    # u'' + u = 0, u = cos t: one step from exact history has O(dt^4) error
    system = scalar_system(1.0, 0.0, 1.0)
    dt = 0.01
    stepper = TimeStepper(system, TimeGrid.from_dt(1.0, dt))
    ts = np.arange(4) * dt
    history = tuple(np.array([np.cos(t)]) for t in ts[:3])
    u3 = step(stepper, history, 3)
    assert abs(u3[0] - np.cos(ts[3])) < 5e-9


def test_step_requires_three_history_levels():
    system = scalar_system(1.0, 0.0, 1.0)
    stepper = TimeStepper(system, TimeGrid.from_dt(1.0, 0.1))
    z = np.zeros(1)
    with pytest.raises(ValueError):
        step(stepper, (z, z, z), 2)


def test_a_failed_factorization_raises_on_first_use_not_in_the_constructor():
    # the constructor factors nothing, so a forked run factors in its child
    prob = bs.preset("cantilever_dampers")
    system = bs.assemble(prob, bs.Mesh(prob.length, 9))
    broken = dataclasses.replace(system, stiffness=combine([(-1e12, system.stiffness)]))
    stepper = TimeStepper(broken, TimeGrid(1.0, 11))
    for first_use in (stepper.startup, lambda: next(stepper.blocks())):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            first_use()


# ---------------------------------------------------------------------------
# the whole-run loop against the one-step reference
# ---------------------------------------------------------------------------

def _forced_variable_problem():
    from beamstab.problem import (
        BoundaryForcing, BoundaryParams, CoefficientField, SpatialProfile, TimeFunction)

    return dataclasses.replace(
        bs.preset("cantilever_dampers"),
        rho=CoefficientField.polynomial((1.0, 0.5)),
        mu=CoefficientField.table((0.0, 0.5, 1.0), (1.0, 2.0, 0.5)),
        rigidity=CoefficientField.polynomial((1.0, 0.3)),
        boundary=BoundaryParams(k_r=1.0, k_d=2.0, k_a=1.0, k_v=0.5),
        forcing=BoundaryForcing(
            g_M=TimeFunction.table((0.0, 0.7, 3.0), (0.0, 0.4, -0.2)),
            g_Q=TimeFunction.exponential(0.3, -1.1)),
        initial=dataclasses.replace(
            bs.preset("cantilever_dampers").initial,
            u1=SpatialProfile.table((0.0, 0.3, 0.6, 1.0), (0.0, 0.1, -0.2, 0.4))))


@pytest.mark.parametrize("name", [*bs.PRESET_NAMES, "forced_variable"])
def test_run_is_bitwise_the_one_step_path(name, kernels):
    prob = _forced_variable_problem() if name == "forced_variable" else bs.preset(name)
    system = bs.assemble(prob, bs.Mesh(prob.length, 9))
    for kind in ("dense", "banded"):
        kernels(kind)
        # two seams between finite-check blocks
        stepper = TimeStepper(system, TimeGrid(prob.final_time, 2 * CHUNK_LEVELS + 7))
        reference = np.array(step_levels(stepper, stepper.startup(), stepper.grid.step_count))
        history = stepper.run().dof_history
        assert np.array_equal(history, reference)
        assert np.array_equal(np.signbit(history), np.signbit(reference))


@pytest.mark.parametrize("nodes", [41, 81])
def test_dense_and_banded_kernels_agree_to_round_off(nodes, kernels):
    # The two kinds of kernel sum in different orders, so the runs differ by
    # round-off amplified by the step matrix's condition.  Measured worst,
    # max |dU| / max |U| over the five presets at dt = h/40: 7.5e-12 at
    # M = 41 and 6.5e-11 at M = 81 (cantilever_spring, both); the bound is
    # ten times the larger.
    for name in bs.PRESET_NAMES:
        prob = bs.preset(name)
        mesh = bs.Mesh(prob.length, nodes)
        system = bs.assemble(prob, mesh)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40)
        runs = {}
        for kind in ("dense", "banded"):
            kernels(kind)
            runs[kind] = TimeStepper(system, grid).run().dof_history
        deviation = np.max(np.abs(runs["dense"] - runs["banded"]))
        assert deviation <= 10 * 6.5e-11 * np.max(np.abs(runs["banded"])), name


@pytest.mark.parametrize("n_levels", [
    4, CHUNK_LEVELS + 1, CHUNK_LEVELS + 2, CHUNK_LEVELS + 3, CHUNK_LEVELS + 4,
    2 * CHUNK_LEVELS + 3])
def test_blocks_concatenate_to_the_stored_history(n_levels):
    # one window of 4, CHUNK_LEVELS + 1 and CHUNK_LEVELS + 2 levels; a last
    # window of 3 and 4 levels (two of them shared with the window before);
    # two seams.  Each window is compared as it comes, since the next one
    # overwrites it: all are views of one buffer.
    prob = _forced_variable_problem()
    stepper = TimeStepper(bs.assemble(prob, bs.Mesh(prob.length, 9)),
                          TimeGrid(prob.final_time, n_levels))
    stored = stepper.run().dof_history
    firsts, buffers = [], []
    for first, window in stepper.blocks():
        firsts.append(first)
        buffers.append(window.base)
        assert 3 <= len(window) <= CHUNK_LEVELS + 2
        assert window.tobytes() == stored[first:first + len(window)].tobytes()
        end = first + len(window)
    assert firsts == list(range(0, n_levels - 2, CHUNK_LEVELS))
    assert end == n_levels
    assert all(buf is buffers[0] for buf in buffers)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(4, 6 * CHUNK_LEVELS + 5))
def test_windows_cover_the_run_and_share_two_levels(n_levels):
    cut = list(windows(n_levels))
    assert cut[0][0] == 0 and cut[-1][1] == n_levels
    assert all(3 <= stop - first <= CHUNK_LEVELS + 2 for first, stop in cut)
    assert all(stop - first == CHUNK_LEVELS + 2 for first, stop in cut[:-1])
    assert all(first == stop - 2 for (_, stop), (first, _) in zip(cut, cut[1:]))


@pytest.mark.parametrize("n_levels", [4, CHUNK_LEVELS + 1, CHUNK_LEVELS + 2, CHUNK_LEVELS + 3,
                                      201])
def test_stepper_windows_are_the_one_cut(n_levels):
    prob = bs.preset("mast_constant")
    stepper = TimeStepper(bs.assemble(prob, bs.Mesh(prob.length, 5)),
                          TimeGrid(prob.final_time, n_levels))
    cut = list(windows(n_levels))
    for blocks in (stepper.blocks, stepper.forked_blocks):
        assert [(first, first + len(window)) for first, window in blocks()] == cut


def test_forked_windows_larger_than_the_pipe_are_the_in_process_bytes(monkeypatch):
    # without F_SETPIPE_SZ the pipe keeps its default size (64 KiB on Linux),
    # far below one window of 66 levels at M = 161 (169 KB), so each full
    # window crosses it in several reads while the child waits on a full pipe
    import fcntl

    monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
    prob = bs.preset("mast_constant")
    mesh = bs.Mesh(prob.length, 161)
    stepper = TimeStepper(bs.assemble(prob, mesh), TimeGrid.from_dt(prob.final_time, mesh.h / 20))
    sizes = []
    for (first, window), (in_first, in_window) in zip(
            stepper.forked_blocks(), stepper.blocks(), strict=True):
        assert (first, window.tobytes()) == (in_first, in_window.tobytes())
        sizes.append(window.nbytes)
    assert max(sizes) > 1 << 16 and sum(sizes) > 1 << 20


def _blow_up_problem():
    # a*exp(b t) overflows to inf once b t > log(max double); the load, and
    # with it the solution, is finite before that level and infinite at it
    from beamstab.problem import BoundaryForcing, TimeFunction

    prob = dataclasses.replace(
        bs.preset("cantilever_dampers"),
        forcing=BoundaryForcing(g_Q=TimeFunction.exponential(1e-300, 1000.0)))
    grid = TimeGrid.from_dt(prob.final_time, 1 / 400)
    first_bad = int(np.argmax(grid.times * 1000.0 > np.log(np.finfo(float).max)))
    assert CHUNK_LEVELS < first_bad < grid.step_count // 2
    return prob, grid, first_bad


def test_blow_up_stops_at_the_first_non_finite_time():
    prob, grid, first_bad = _blow_up_problem()
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=f"at t = {grid.times[first_bad]:.12g}$"):
        bs.run(prob, bs.Mesh(1.0, 9), grid)


def test_blocks_yield_only_finite_levels_before_a_blow_up():
    prob, grid, first_bad = _blow_up_problem()
    stepper = TimeStepper(bs.assemble(prob, bs.Mesh(1.0, 9)), grid)
    ends = []
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=f"at t = {grid.times[first_bad]:.12g}$"):
        for first, window in stepper.blocks():
            assert np.isfinite(window).all()
            ends.append(first + len(window))
    # the window that would have reached the first bad level is not yielded
    assert ends[-1] == (first_bad - 2) // CHUNK_LEVELS * CHUNK_LEVELS + 2


# ---------------------------------------------------------------------------
# the history operator against the two banded products it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, nodes", [
    *((name, nodes) for name in bs.PRESET_NAMES for nodes in (7, 3)), ("scalar", None)])
def test_history_operator_is_the_dense_three_level_stencil(name, nodes, kernels):
    # M = 3 gives n = 4 with half-bandwidth 3: every band entry is in the matrix
    if name == "scalar":
        system = scalar_system(2.0, 0.3, 1.7)
    else:
        prob = bs.preset(name)
        system = bs.assemble(prob, bs.Mesh(prob.length, nodes))
    grid = TimeGrid(1.0, 11)
    dt = grid.dt
    m, c, k = system.mass.to_dense(), system.damping.to_dense(), system.stiffness.to_dense()
    # [A3 | A2 | A1 - S]: the step solves S (U^j - U^{j-1}) = load + A3 U^{j-3}
    # + A2 U^{j-2} + (A1 - S) U^{j-1}, with A1 = 5M/dt^2 + 2C/dt and
    # S = 2M/dt^2 + 3C/(2dt) + K
    dense = np.hstack([(1.0 / dt**2) * m,
                       (-4.0 / dt**2) * m + (-0.5 / dt) * c,
                       (3.0 / dt**2) * m + (0.5 / dt) * c - k])
    for kind, read in (("dense", np.asarray), ("banded", lambda csr: csr.toarray())):
        kernels(kind)
        history = TimeStepper(system, grid)._operators.history
        assert history.shape == (system.n, 3 * system.n)
        assert np.array_equal(read(history), dense)


def _two_product_history(stepper):
    """The three-level recurrence as the step loop formed it before the
    history operator: ``load + M x1 + C x2`` with
    ``x1 = (5 U^{j-1} - 4 U^{j-2} + U^{j-3}) / dt^2`` and
    ``x2 = (4 U^{j-1} - U^{j-2}) / (2 dt)``, two matrix products a step."""
    system, grid = stepper.system, stepper.grid
    dt = grid.dt
    step_solve = combine([(2.0 / dt**2, system.mass), (1.5 / dt, system.damping),
                          (1.0, system.stiffness)]).factor()
    m, c = system.mass.to_dense(), system.damping.to_dense()
    levels = list(stepper.startup())
    for j in range(3, grid.step_count):
        u3, u2, u1 = levels[-3:]
        rhs = m @ ((5.0 * u1 - 4.0 * u2 + u3) / dt**2) + c @ ((4.0 * u1 - u2) / (2.0 * dt))
        rhs[-2:] += system.end_load(grid.times[j])
        step_solve.solve_in_place(rhs)
        levels.append(rhs)
    return np.array(levels)


@pytest.mark.parametrize("name", bs.PRESET_NAMES)
def test_run_agrees_with_the_two_product_recurrence(name):
    prob = bs.preset(name)
    mesh = bs.Mesh(prob.length, 41)
    stepper = TimeStepper(bs.assemble(prob, mesh),
                          TimeGrid.from_dt(prob.final_time, mesh.h / 40))
    reference = _two_product_history(stepper)
    deviation = np.max(np.abs(stepper.run().dof_history - reference))
    # the sums are ordered differently, so the histories differ by round-off
    # amplified by the step matrix's condition (3.5e4 at M = 41).  Measured
    # worst, relative to max |U|: 1.2e-10 (cantilever_spring; test_NE1
    # 2.6e-12); the bound is that rounded up to the next power of ten.
    assert deviation <= 1e-9 * np.max(np.abs(reference))


# ---------------------------------------------------------------------------
# temporal convergence on the exact-solution problem
# ---------------------------------------------------------------------------

def test_temporal_order_is_two():
    prob = bs.preset("test_NE1")
    exact = bs.exact_solution("test_NE1")
    mesh = bs.Mesh(1.0, 11)
    errors = []
    for dt in (1 / 100, 1 / 200, 1 / 400):
        grid = TimeGrid.from_dt(1.5, dt)
        trace = bs.run(prob, mesh, grid)
        u = _nodal_u(trace)
        errors.append(np.max(np.abs(
            u - exact.u(mesh.nodes[None, :], grid.times[:, None]))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_spatial_error_is_resolution_independent():
    # the exact solution lies in the Hermite space: refining the mesh at
    # fixed dt leaves the (purely temporal) error unchanged
    prob = bs.preset("test_NE1")
    exact = bs.exact_solution("test_NE1")
    grid = TimeGrid.from_dt(1.5, 1 / 2000)
    errors = []
    for nodes in (6, 11, 21):
        mesh = bs.Mesh(1.0, nodes)
        trace = bs.run(prob, mesh, grid)
        u = _nodal_u(trace)
        errors.append(np.max(np.abs(
            u - exact.u(mesh.nodes[None, :], grid.times[:, None]))))
    assert max(errors) / min(errors) < 1.5


# ---------------------------------------------------------------------------
# determinism and stability
# ---------------------------------------------------------------------------

def test_runs_are_bit_identical():
    prob = bs.preset("test_NE1")
    mesh, grid = bs.Mesh(1.0, 11), TimeGrid.from_dt(1.5, 1 / 200)
    a = bs.run(prob, mesh, grid)
    b = bs.run(prob, mesh, grid)
    assert np.array_equal(a.dof_history, b.dof_history)


@pytest.mark.parametrize("name", ["cantilever_free", "cantilever_spring",
                                  "cantilever_dampers", "mast_constant"])
def test_no_growth_at_coarse_steps(name):
    prob = bs.preset(name)
    mesh = bs.Mesh(prob.length, 11)
    for n_levels in (8, 16, 64, 256):
        trace = bs.run(prob, mesh, TimeGrid(prob.final_time, n_levels))
        start = max(np.max(np.abs(trace.dof_history[0])), 1e-30)
        assert np.max(np.abs(trace.dof_history)) <= 1.05 * start
        assert np.all(np.isfinite(trace.dof_history))


# ---------------------------------------------------------------------------
# modal-series oracle for the damper-controlled mast
# ---------------------------------------------------------------------------

def test_mast_matches_truncated_modal_series():
    # oracle: expand the semi-discrete state in the 10 slowest eigenmode
    # pairs of the first-order reformulation and reconstruct the tip motion
    prob = bs.preset("mast_constant")
    mesh = bs.Mesh(1.0, 11)
    system = bs.assemble(prob, mesh)
    n = system.n
    m = system.mass.to_dense()
    c = system.damping.to_dense()
    k = system.stiffness.to_dense()
    a_state = np.zeros((2 * n, 2 * n))
    a_state[:n, n:] = np.eye(n)
    a_state[n:, :n] = -np.linalg.solve(m, k)
    a_state[n:, n:] = -np.linalg.solve(m, c)

    u0 = interpolate_profile(prob.initial.u0, system.mesh)
    v0 = interpolate_profile(prob.initial.u1, system.mesh)
    z0 = np.concatenate([u0, v0])

    lam, vecs = scipy.linalg.eig(a_state)
    coeff = np.linalg.solve(vecs, z0)
    keep = np.argsort(np.abs(lam))[:20]  # 10 conjugate pairs

    grid = TimeGrid.from_dt(prob.final_time, 1 / 800)
    trace = bs.run(prob, mesh, grid)
    tip = trace.dof_history[:, n - 2]

    for j in range(0, grid.step_count, grid.step_count // 8):
        t = grid.times[j]
        z = (vecs[:, keep] * np.exp(lam[keep] * t)) @ coeff[keep]
        assert abs(z[n - 2].imag) < 1e-4  # conjugate pairing up to truncation
        assert abs(tip[j] - z[n - 2].real) < 2e-3

    # tip envelope decays: windowed maxima strictly decrease
    windows = np.array_split(np.abs(tip), 4)
    maxima = [w.max() for w in windows]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))


def test_trace_csv_export(tmp_path):
    prob = bs.preset("test_NE1")
    trace = bs.run(prob, bs.Mesh(1.0, 5), TimeGrid.from_dt(1.5, 1 / 20))
    path = tmp_path / "trace.csv"
    bs.export_trace_csv(trace, path, decimate=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "t, node, u, u_x"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 4
    assert data[-1, 0] == 1.5  # final level always exported


def _trace_csv_per_row(trace, path, decimate=1):
    """The per-row writer export_trace_csv replaced: the byte oracle."""
    grid, mesh = trace.grid, trace.system.mesh
    indices = list(range(0, grid.step_count, decimate))
    if indices[-1] != grid.step_count - 1:
        indices.append(grid.step_count - 1)
    with open(path, "w") as fh:
        fh.write("t, node, u, u_x\n")
        for j in indices:
            t = grid.times[j]
            dofs = trace.dof_history[j]
            for node in range(mesh.node_count):
                u = dofs[2 * (node - 1)] if node else 0.0
                ux = dofs[2 * (node - 1) + 1] if node else 0.0
                fh.write(f"{t:.17g}, {node}, {u:.17g}, {ux:.17g}\n")


def _special_trace(levels):
    # random magnitudes over 80 decades; the first, middle and last rows hold
    # signed zero, subnormals, exponent-form values and the extremes
    system = bs.assemble(bs.preset("test_NE1"), bs.Mesh(1.0, 7))
    rng = np.random.default_rng(levels)
    hist = rng.standard_normal((levels, system.n)) \
        * 10.0 ** rng.integers(-40, 40, (levels, system.n))
    hist[[0, levels // 2, -1]] = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e-300,
                                  1e300, -1.7976931348623157e308, 1e17,
                                  -123456789012345678.0, 1.0000000000000002, 0.1, -1e-5]
    return SolutionTrace(TimeGrid(1.5, levels), hist, system)


@pytest.mark.parametrize("levels, decimate", [
    (CHUNK_LEVELS - 1, 1), (CHUNK_LEVELS, 1), (CHUNK_LEVELS + 1, 1),
    (201, 1), (201, 5), (201, 7), (201, 200), (201, 201), (201, 1000),
    (5 * CHUNK_LEVELS - 4, 5),  # CHUNK_LEVELS levels written
    (5 * CHUNK_LEVELS + 1, 5),  # CHUNK_LEVELS + 1 levels written
])
def test_trace_csv_bytes_match_the_per_row_writer(tmp_path, levels, decimate):
    trace = _special_trace(levels)
    bs.export_trace_csv(trace, tmp_path / "block.csv", decimate=decimate)
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=decimate)
    block = (tmp_path / "block.csv").read_bytes()
    assert block == (tmp_path / "row.csv").read_bytes()
    assert b"e+300" in block and b", -0, " in block and b"4.9406564584124654e-324" in block


def test_trace_csv_of_a_forced_run_matches_the_per_row_writer(tmp_path):
    trace = bs.run(bs.preset("test_NE1"), bs.Mesh(1.0, 9), TimeGrid.from_dt(1.5, 1 / 80))
    bs.export_trace_csv(trace, tmp_path / "block.csv")
    _trace_csv_per_row(trace, tmp_path / "row.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("decimate", [1, 7])
def test_trace_csv_of_a_damped_run_matches_the_per_row_writer(tmp_path, decimate):
    # the numbers of a real run, almost all on the kernel's fast path: a
    # cantilever_dampers run at M = 41, dt = h/40, as `simulate` writes it
    prob = bs.preset("cantilever_dampers")
    mesh = bs.Mesh(prob.length, 41)
    trace = bs.run(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / 40))
    bs.export_trace_csv(trace, tmp_path / "block.csv", decimate=decimate)
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=decimate)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("decimate", [1, 3])
def test_trace_csv_of_levels_wider_than_a_kernel_call_matches_the_per_row_writer(tmp_path,
                                                                                   decimate):
    # from M = 1025 on, one level holds more numbers than one kernel call
    # takes: each piece is then a single level
    from beamstab import _g17

    system = bs.assemble(bs.preset("mast_constant"), bs.Mesh(1.0, 1025))
    assert system.n + 1 > _g17.CHUNK
    levels = CHUNK_LEVELS + 5
    history = np.random.default_rng(1025).standard_normal((levels, system.n))
    trace = SolutionTrace(TimeGrid(1.0, levels), history, system)
    bs.export_trace_csv(trace, tmp_path / "block.csv", decimate=decimate)
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=decimate)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("chunk", [1, 8, 9, 10, 17, 18, 19, 100])
def test_trace_pieces_of_any_kernel_call_size_match_the_per_row_writer(tmp_path, monkeypatch,
                                                                        chunk):
    # a level at M = 5 holds 9 numbers: a call takes one level (chunk < 18),
    # two, or eleven, and the windows' last pieces are shorter
    from beamstab import _g17

    monkeypatch.setattr(_g17, "CHUNK", chunk)
    system = bs.assemble(bs.preset("mast_constant"), bs.Mesh(1.0, 5))
    levels = 2 * CHUNK_LEVELS + 3
    history = np.random.default_rng(chunk).standard_normal((levels, system.n))
    trace = SolutionTrace(TimeGrid(1.0, levels), history, system)
    bs.export_trace_csv(trace, tmp_path / "block.csv", decimate=2)
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=2)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("decimate", [1, 5, 7, 64, 200, 2**63, 2**64])
def test_trace_writer_fed_in_blocks_matches_the_per_row_writer(tmp_path, decimate):
    # written levels fall on the seams of the windows, and decimate = 200
    # writes level 0, then only the last level; so do steps beyond int64,
    # which np.arange would take as floats
    trace = _special_trace(3 * CHUNK_LEVELS + 9)
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=decimate)
    writer = bs.TraceWriter(trace.system, trace.grid, decimate)
    with open(tmp_path / "windows.csv", "w") as fh:
        for first, stop in windows(trace.grid.step_count):
            writer.write(fh, trace.dof_history[first:stop], first)
    assert (tmp_path / "windows.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def test_trace_writer_rejects_a_window_that_is_not_the_next(tmp_path):
    # a refused window writes nothing: the file is still the per-row one
    trace = _special_trace(3 * CHUNK_LEVELS + 9)
    hist = trace.dof_history
    writer = bs.TraceWriter(trace.system, trace.grid)
    with open(tmp_path / "t.csv", "w") as fh:
        with pytest.raises(ValueError, match="not the next one, at level 0"):
            writer.write(fh, hist[1:10], 1)
        writer.write(fh, hist[:66], 0)
        with pytest.raises(ValueError, match="not the next one, at level 64"):
            writer.write(fh, hist[67:133], 67)   # a gap
        with pytest.raises(ValueError, match="not the next one, at level 64"):
            writer.write(fh, hist[:66], 0)       # an overlap: the same window again
        for first, stop in list(windows(len(hist)))[1:]:
            writer.write(fh, hist[first:stop], first)
    _trace_csv_per_row(trace, tmp_path / "row.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("decimate", [0, -3])
def test_trace_csv_rejects_decimate_below_one(tmp_path, decimate):
    with pytest.raises(ValueError, match="decimate"):
        bs.export_trace_csv(_special_trace(8), tmp_path / "t.csv", decimate=decimate)


def test_trace_csv_streams_in_blocks():
    # the file (about 20 MB here) is never held whole: the writer's extra
    # memory is one block of CHUNK_LEVELS levels, whatever the run length
    system = bs.assemble(bs.preset("mast_constant"), bs.Mesh(1.0, 81))
    levels = 60 * CHUNK_LEVELS + 1
    history = np.random.default_rng(3).standard_normal((levels, system.n))
    trace = SolutionTrace(TimeGrid(1.0, levels), history, system)
    tracemalloc.start()
    try:
        bs.export_trace_csv(trace, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < history.nbytes / 4
