"""Time integration: startup, stepping, convergence, stability."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import beamstab as bs
from beamstab.fem import (
    CHUNK_LEVELS, BandedSymmetricMatrix, SemiDiscreteSystem, interpolate_profile)
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
    u0, v0, _ = stepper.initial_state()
    nodes = system.mesh.nodes[1:]
    assert u0[0::2] == pytest.approx(nodes**2, abs=1e-14)
    assert u0[1::2] == pytest.approx(2 * nodes, abs=1e-14)
    assert v0[0::2] == pytest.approx(-2 * nodes**2, abs=1e-14)
    levels = stepper.startup()
    assert levels[0] is u0 or np.array_equal(levels[0], u0)


def test_startup_acceleration_satisfies_newton_law():
    prob = bs.preset("cantilever_spring")
    system = bs.assemble(prob, bs.Mesh(1.0, 9))
    stepper = TimeStepper(system, TimeGrid.from_dt(2.0, 1e-3))
    u0, v0, a0 = stepper.initial_state()
    residual = system.mass.matvec(a0) + system.damping.matvec(v0) \
        + system.stiffness.matvec(u0) - system.load(0.0)
    assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(system.stiffness.matvec(u0)))


# ---------------------------------------------------------------------------
# scalar three-level recurrence oracle
# ---------------------------------------------------------------------------

def _scalar_system(m, c, k):
    def mat(v):
        out = BandedSymmetricMatrix(1, 0)
        out.add(0, 0, v)
        return out
    return SemiDiscreteSystem(mat(m), mat(c), mat(k),
                              lambda t: np.zeros(1), None, None, None)


def test_scalar_reduction_matches_hand_recurrence():
    m, c, k = 2.0, 0.3, 1.7
    dt = 0.05
    system = _scalar_system(m, c, k)
    stepper = TimeStepper(system, TimeGrid.from_dt(1.0, dt))
    # hand-solved recurrence for (2m/dt^2 + 3c/(2dt) + k) u_j = ...
    lhs = 2.0 * m / dt**2 + 1.5 * c / dt + k
    u = [1.0, 0.9, 0.85]
    mine = [np.array([v]) for v in u]
    for j in range(3, 12):
        nxt = (m * (5 * u[-1] - 4 * u[-2] + u[-3]) / dt**2
               + c * (4 * u[-1] - u[-2]) / (2 * dt)) / lhs
        u.append(nxt)
        mine.append(stepper.step((mine[-3], mine[-2], mine[-1]), j))
    for a, b in zip(u, mine):
        assert abs(a - b[0]) <= 1e-12 * max(1.0, abs(a))


def test_scalar_oscillator_one_step_accuracy():
    # u'' + u = 0, u = cos t: one step from exact history has O(dt^4) error
    system = _scalar_system(1.0, 0.0, 1.0)
    dt = 0.01
    stepper = TimeStepper(system, TimeGrid.from_dt(1.0, dt))
    ts = np.arange(4) * dt
    history = tuple(np.array([np.cos(t)]) for t in ts[:3])
    u3 = stepper.step(history, 3)
    assert abs(u3[0] - np.cos(ts[3])) < 5e-9


def test_step_requires_three_history_levels():
    system = _scalar_system(1.0, 0.0, 1.0)
    stepper = TimeStepper(system, TimeGrid.from_dt(1.0, 0.1))
    z = np.zeros(1)
    with pytest.raises(ValueError):
        stepper.step((z, z, z), 2)


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
def test_run_is_bitwise_the_one_step_path(name):
    prob = _forced_variable_problem() if name == "forced_variable" else bs.preset(name)
    # two seams between finite-check blocks
    stepper = TimeStepper(bs.assemble(prob, bs.Mesh(prob.length, 9)),
                          TimeGrid(prob.final_time, 2 * CHUNK_LEVELS + 7))
    levels = list(stepper.startup())
    for j in range(3, stepper.grid.step_count):
        levels.append(stepper.step(tuple(levels[-3:]), j))
    reference = np.array(levels)
    history = stepper.run().dof_history
    assert np.array_equal(history, reference)
    assert np.array_equal(np.signbit(history), np.signbit(reference))


@pytest.mark.parametrize("n_levels", [
    4, CHUNK_LEVELS + 1, CHUNK_LEVELS + 2, CHUNK_LEVELS + 3, CHUNK_LEVELS + 4,
    2 * CHUNK_LEVELS + 3])
def test_blocks_concatenate_to_the_stored_history(n_levels):
    # one block; a last block shorter than, as long as and longer than the
    # three levels carried over a seam; two seams.  Every yielded block
    # stays valid after the next one is made.
    prob = _forced_variable_problem()
    stepper = TimeStepper(bs.assemble(prob, bs.Mesh(prob.length, 9)),
                          TimeGrid(prob.final_time, n_levels))
    blocks = list(stepper.blocks())
    assert [len(b) for b in blocks[:-1]] == [CHUNK_LEVELS] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= CHUNK_LEVELS
    streamed = np.concatenate(blocks)
    stored = stepper.run().dof_history
    assert streamed.tobytes() == stored.tobytes()


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
    blocks = []
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=f"at t = {grid.times[first_bad]:.12g}$"):
        for block in stepper.blocks():
            blocks.append(block)
    streamed = np.concatenate(blocks)
    assert len(streamed) == first_bad // CHUNK_LEVELS * CHUNK_LEVELS
    assert np.isfinite(streamed).all()


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

    u0 = interpolate_profile(prob.initial.u0, system.mesh, system.dof_map)
    v0 = interpolate_profile(prob.initial.u1, system.mesh, system.dof_map)
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


# ---------------------------------------------------------------------------
# space-time interpolation
# ---------------------------------------------------------------------------

def test_interpolate_at_grid_time_equals_grid_evaluation():
    prob = bs.preset("test_NE1")
    trace = bs.run(prob, bs.Mesh(1.0, 11), TimeGrid.from_dt(1.5, 1 / 100))
    j = 40
    t = trace.grid.times[j]
    u, ux, uxx, _ = bs.interpolate(trace, 0.43, t)
    from beamstab.fem import evaluate_solution
    direct = evaluate_solution(trace.system, trace.dof_history[j], 0.43)
    assert (u, ux, uxx) == pytest.approx(direct, rel=1e-14)


def test_interpolate_midpoint_is_arithmetic_mean():
    prob = bs.preset("test_NE1")
    trace = bs.run(prob, bs.Mesh(1.0, 11), TimeGrid.from_dt(1.5, 1 / 100))
    j = 30
    tm = 0.5 * (trace.grid.times[j] + trace.grid.times[j + 1])
    from beamstab.fem import evaluate_solution
    lo = evaluate_solution(trace.system, trace.dof_history[j], 0.7)
    hi = evaluate_solution(trace.system, trace.dof_history[j + 1], 0.7)
    u, _, _, _ = bs.interpolate(trace, 0.7, tm)
    assert u == pytest.approx(0.5 * (lo[0] + hi[0]), rel=1e-13)


def test_interpolate_matches_exact_solution_off_grid():
    prob = bs.preset("test_NE1")
    trace = bs.run(prob, bs.Mesh(1.0, 41), TimeGrid.from_dt(1.5, (1 / 40) / 40))
    u, _, _, _ = bs.interpolate(trace, 0.5, 0.75)
    assert u == pytest.approx(0.25 * np.exp(-1.5), abs=1e-5)


def test_interpolate_rejects_out_of_domain():
    prob = bs.preset("test_NE1")
    trace = bs.run(prob, bs.Mesh(1.0, 7), TimeGrid.from_dt(1.5, 1 / 50))
    with pytest.raises(ValueError):
        bs.interpolate(trace, 0.5, 2.0)


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
    dof_map = trace.system.dof_map
    indices = list(range(0, grid.step_count, decimate))
    if indices[-1] != grid.step_count - 1:
        indices.append(grid.step_count - 1)
    with open(path, "w") as fh:
        fh.write("t, node, u, u_x\n")
        for j in indices:
            t = grid.times[j]
            dofs = trace.dof_history[j]
            for node in range(mesh.node_count):
                di, ri = dof_map.disp_dof(node), dof_map.rot_dof(node)
                u = dofs[di] if di >= 0 else 0.0
                ux = dofs[ri] if ri >= 0 else 0.0
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


@pytest.mark.parametrize("decimate", [1, 5, 7, 64, 200])
def test_trace_writer_fed_in_blocks_matches_the_per_row_writer(tmp_path, decimate):
    # blocks of the stepper's size and of odd sizes, so written levels fall
    # on block seams and in one-level blocks
    trace = _special_trace(3 * CHUNK_LEVELS + 9)
    sizes = [CHUNK_LEVELS, 1, 7, CHUNK_LEVELS + 5, 2, CHUNK_LEVELS - 6]
    assert sum(sizes) == trace.grid.step_count
    writer = bs.TraceWriter(trace.system, trace.grid, decimate)
    lo = 0
    with open(tmp_path / "blocks.csv", "w") as fh:
        for size in sizes:
            writer.write(fh, trace.dof_history[lo:lo + size])
            lo += size
    _trace_csv_per_row(trace, tmp_path / "row.csv", decimate=decimate)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


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
