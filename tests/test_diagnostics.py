"""Energy diagnostics: derivative quotients, curvature, functionals."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import beamstab as bs
from beamstab.fem import (
    CHUNK_LEVELS, FieldKernel, interpolate_profile, velocities, windows)
from beamstab.problem import (
    BoundaryParams,
    CoefficientField,
    InitialData,
    SpatialProfile,
)
from beamstab.stepper import SolutionTrace, TimeGrid


def _ne1_trace(nodes=21, ratio=20):
    prob = bs.preset("test_NE1")
    mesh = bs.Mesh(1.0, nodes)
    grid = TimeGrid.from_dt(1.5, mesh.h / ratio)
    return bs.run(prob, mesh, grid)


def _rest_trace():
    prob = dataclasses.replace(
        bs.preset("cantilever_dampers"),
        initial=InitialData(u0=SpatialProfile.polynomial((0.0,)),
                            u1=SpatialProfile.polynomial((0.0,))))
    return bs.run(prob, bs.Mesh(1.0, 9), TimeGrid(2.0, 101))


def _synthetic_trace(system, grid, dof_rows):
    return SolutionTrace(grid, np.asarray(dof_rows), system)


def _velocities(trace):
    """Centered velocity rows of the interior levels, window by window of
    ``fem.windows``: row j - 1 is level j."""
    hist, dt = trace.dof_history, trace.grid.dt
    return np.concatenate([velocities(hist[first:stop], dt)
                           for first, stop in windows(len(hist))])


def _curvature_field(trace, j):
    """Curvature profile ``x -> u_xx(x, t_j)``: the Hermite curvature, linear
    in each element between its ``FieldKernel`` end values (left-element
    limits at nodes)."""
    mesh = trace.system.mesh
    dofs = trace.dof_history[j][None, :]
    ends = FieldKernel(mesh.h, (0.0, 1.0)).curvatures(dofs)[0]

    def field(x):
        s = np.asarray(x, dtype=float) / mesh.h
        e = np.clip(np.ceil(s) - 1, 0, mesh.element_count - 1).astype(int)
        return (1.0 - (s - e)) * ends[e, 0] + (s - e) * ends[e, 1]

    return field


def _kinetic_integrals(trace):
    """``int rho u_t^2 dx`` at the interior levels (entry j - 1 is level j)."""
    quad = trace.system.quadrature
    ut = quad.values(_velocities(trace))
    return quad.integral(quad.w_rho, ut, ut)


# ---------------------------------------------------------------------------
# centered time derivative
# ---------------------------------------------------------------------------

def test_constant_trace_has_zero_velocity():
    system = bs.assemble(bs.preset("test_NE1"), bs.Mesh(1.0, 5))
    grid = TimeGrid(1.0, 11)
    dofs = np.ones(system.n)
    trace = _synthetic_trace(system, grid, np.tile(dofs, (11, 1)))
    assert np.all(_velocities(trace) == 0.0)


@pytest.mark.parametrize("dt", [0.01, 0.005])
def test_exponential_trace_velocity_matches_taylor_oracle(dt):
    # oracle: centered-difference error of exp(-2t) is exactly
    # (sinh(2 dt)/dt - 2) e^{-2t} ~ (4/3) dt^2 e^{-2t}
    system = bs.assemble(bs.preset("test_NE1"), bs.Mesh(1.0, 5))
    grid = TimeGrid.from_dt(1.0, dt)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(system.n)
    hist = np.exp(-2.0 * grid.times)[:, None] * v[None, :]
    trace = _synthetic_trace(system, grid, hist)
    velocities = _velocities(trace)
    for j in (1, 20, 50):
        got = velocities[j - 1]
        exact = -2.0 * np.exp(-2.0 * grid.times[j]) * v
        bound = (8.0 / 6.0) * dt**2 * np.exp(-2.0 * grid.times[j]) * np.abs(v)
        err = np.abs(got - exact)
        assert np.all(err <= 1.05 * bound)
        assert np.max(err / bound) >= 0.9  # sharp, not accidentally tiny


def test_ne1_tip_velocity():
    trace = _ne1_trace()
    grid = trace.grid
    n = trace.dof_history.shape[1]
    velocities = _velocities(trace)
    for j in (50, 200, 500):
        vel = velocities[j - 1]
        assert vel[n - 2] == pytest.approx(-2.0 * np.exp(-2.0 * grid.times[j]), rel=1e-3)


def test_velocity_needs_both_neighbors():
    # levels 0 and N-1 get no velocity row: the blocks cover levels 1..N-2,
    # and the first and last rows are the quotients around levels 1 and N-2
    trace = _ne1_trace(nodes=5, ratio=5)
    hist, dt = trace.dof_history, trace.grid.dt
    # each window's interior levels, as indices of arrays over interior levels
    outs = [(first, stop - 2) for first, stop in windows(len(hist))]
    assert outs == [
        (lo, min(lo + CHUNK_LEVELS, len(hist) - 2)) for lo in range(0, len(hist) - 2, CHUNK_LEVELS)]
    velocities = _velocities(trace)
    assert len(velocities) == len(hist) - 2
    assert np.array_equal(velocities[0], (hist[2] - hist[0]) / (2.0 * dt))
    assert np.array_equal(velocities[-1], (hist[-1] - hist[-3]) / (2.0 * dt))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_ne1_basis_curvature():
    trace = _ne1_trace()
    j = 300
    expected = 2.0 * np.exp(-2.0 * trace.grid.times[j])
    xs = np.linspace(0.0, 1.0, 17)
    field = _curvature_field(trace, j)
    assert field(xs) == pytest.approx(expected * np.ones_like(xs), rel=1e-4)


def test_linear_dof_field_has_zero_basis_curvature():
    # DOFs sampling u = 1 + 2x away from the clamped element: the Hermite
    # interpolant is that exact line inside every element whose end DOFs
    # match it, so curvature vanishes there
    system = bs.assemble(bs.preset("test_NE1"), bs.Mesh(1.0, 9))
    mesh = system.mesh
    dofs = np.zeros(system.n)
    dofs[0::2] = 1.0 + 2.0 * mesh.nodes[1:]
    dofs[1::2] = 2.0
    grid = TimeGrid(1.0, 4)
    trace = _synthetic_trace(system, grid, np.tile(dofs, (4, 1)))
    field = _curvature_field(trace, 1)
    for x in np.linspace(mesh.nodes[1] + 1e-6, 1.0, 13):
        assert abs(field(x)) < 1e-12


def test_cubic_dof_field_has_exact_basis_curvature():
    # x^3 lies in the Hermite space, so its curvature is 6x exactly
    system = bs.assemble(bs.preset("test_NE1"), bs.Mesh(1.0, 9))
    dofs = interpolate_profile(SpatialProfile.polynomial((0.0, 0.0, 0.0, 1.0)),
                               system.mesh)
    grid = TimeGrid(1.0, 4)
    trace = _synthetic_trace(system, grid, np.tile(dofs, (4, 1)))
    xs = np.linspace(0.0, 1.0, 21)
    field = _curvature_field(trace, 1)
    assert field(xs) == pytest.approx(6.0 * xs, abs=1e-10)


def test_unknown_mode_rejected(capsys):
    # the curvature has no mode: the keyword and the option are unknown
    from beamstab import cli

    trace = _ne1_trace(nodes=5, ratio=5)
    with pytest.raises(TypeError, match="mode"):
        bs.EnergyAccumulator(trace.system, trace.grid, mode="basis")
    with pytest.raises(TypeError, match="mode"):
        bs.energy(trace, mode="basis")
    sweep = ["--param", "k_v", "--values", "1"]
    for command, extra in (("validate", []), ("simulate", []), ("verify", []),
                           ("convergence", []), ("sweep", sweep), ("bounds", [])):
        assert cli.main([command, "--preset", "test_NE1", *extra, "--mode", "basis"]) == 3
        assert "--mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def test_initial_energy_of_ne1_is_exact():
    assert bs.initial_energy(bs.preset("test_NE1")) == pytest.approx(17.4, abs=1e-12)


def _kinds_problem(kind):
    """cantilever_dampers with every coefficient and both initial profiles
    of one kind, table or polynomial."""
    if kind == "table":
        x = (0.0, 0.25, 0.5, 0.75, 1.0)
        fields = dict(rho=CoefficientField.table((0.0, 0.5, 1.0), (1.0, 2.0, 1.5)),
                      mu=CoefficientField.table((0.0, 0.5, 1.0), (1.0, 2.0, 0.5)),
                      rigidity=CoefficientField.table((0.0, 1.0), (1.0, 1.3)),
                      initial=InitialData(
                          u0=SpatialProfile.table(x, (0.0, 0.1, 0.3, 0.2, 0.4), clamp_left=True),
                          u1=SpatialProfile.table(x, (0.0, 0.5, -0.3, 0.2, 1.0))))
    else:
        fields = dict(rho=CoefficientField.polynomial((1.0, 0.5)),
                      mu=CoefficientField.polynomial((0.5, 0.2)),
                      rigidity=CoefficientField.polynomial((1.0, 0.3)),
                      initial=InitialData(u0=SpatialProfile.polynomial((0.0, 0.0, 1.0, -0.5)),
                                          u1=SpatialProfile.polynomial((0.0, 0.3, 0.7))))
    return dataclasses.replace(bs.preset("cantilever_dampers"), **fields)


@pytest.mark.parametrize("name", [*bs.PRESET_NAMES, "table", "polynomial"])
def test_a_runs_initial_energy_is_initial_energy(name):
    # level 0 of the record is filled once, and E(0) is read from it with
    # the E formula that initial_energy applies: the same float, bitwise
    prob = bs.preset(name) if name in bs.PRESET_NAMES else _kinds_problem(name)
    assert bs.validate(prob).ok
    e = bs.energy(bs.run(prob, bs.Mesh(prob.length, 9), TimeGrid(prob.final_time, 21)))
    assert e.E0 == bs.initial_energy(prob) > 0.0


def test_a_run_integrates_its_initial_data_three_times(monkeypatch):
    # int rho u1^2, int r u0''^2 and int mu u1^2, once each for level 0 of
    # the record; the damper-only window reads the kinetic one from there
    from beamstab import bounds, diagnostics, fem

    calls, integrate = [], fem.integrate_data

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    prob = bs.preset("mast_constant")
    trace = bs.run(prob, bs.Mesh(1.0, 9), TimeGrid(prob.final_time, 2 * CHUNK_LEVELS + 3))
    for module in (fem, diagnostics, bounds):
        monkeypatch.setattr(module, "integrate_data", counted, raising=False)
    assert bs.energy(trace).bound.regime == "theorem2"
    assert len(calls) == 3


def test_ne1_energy_curves_match_reference_exponentials():
    trace = _ne1_trace()
    e = bs.energy(trace)
    sel = e.times >= 0.05
    ref_e = 17.4 * np.exp(-4.0 * e.times[sel])
    ref_j = 6.8 * np.exp(-4.0 * e.times[sel])
    assert np.max(np.abs(e.E[sel] / ref_e - 1.0)) < 2e-3
    assert np.max(np.abs(e.J[sel] / ref_j - 1.0)) < 2e-3


def test_rest_state_energies_vanish():
    e = bs.energy(_rest_trace())
    for arr in (e.E, e.J, e.j_mu, e.j_a, e.j_v, e.residual):
        assert np.all(arr == 0.0)
    assert e.E0 == 0.0


def test_energy_is_nonnegative_and_dissipation_nondecreasing():
    trace = _ne1_trace()
    e = bs.energy(trace)
    assert np.all(e.E >= 0.0)
    for arr in (e.j_mu, e.j_a, e.j_v):
        assert np.all(np.diff(arr) >= 0.0)


@pytest.mark.parametrize("nodes", [5, 11, 21, 41])
@pytest.mark.parametrize("name", ["cantilever_free", "cantilever_spring",
                                  "cantilever_dampers", "mast_constant"])
def test_a_damped_homogeneous_run_never_gains_energy(name, nodes):
    # E(0) from the analytic data, then E at t_1, t_2, ...: the Hermite
    # curvature makes E the discrete energy of the run's own matrices, which
    # BDF2 dissipates.  The smallest fall measured on these runs is 3.5e-8
    # E(0) (cantilever_free, M = 41); the allowance is round-off only.  The
    # centered nodal-slope curvature rose by 5e-4 to 4e-2 E(0) at t_1 here.
    from beamstab import cli

    prob = bs.preset(name)
    mesh = bs.Mesh(prob.length, nodes)
    e = cli._streamed_energy(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / 40))
    rises = np.diff(np.concatenate([[e.E0], e.E]))
    assert e.E0 > 0.0
    assert rises[0] <= 1e-12 * e.E0
    assert np.max(rises) <= 1e-12 * e.E0, int(np.argmax(rises))


def test_lyapunov_column_and_window():
    trace = _ne1_trace(nodes=9, ratio=10)
    e = bs.energy(trace, lam=0.5)
    assert e.bound.lambda_max == pytest.approx(1.0)
    assert e.L == pytest.approx(e.E + 0.5 * e.J)
    with pytest.raises(ValueError, match="lambda"):
        bs.energy(trace, lam=1.5)
    with pytest.raises(ValueError, match="lambda"):
        bs.energy(trace, lam=-0.1)


def test_forced_runs_refuse_the_identity():
    e = bs.energy(_ne1_trace(nodes=9, ratio=10))
    assert e.forced
    with pytest.raises(ValueError, match="forcing"):
        bs.identity_residual(e)


def test_identity_residual_refines_on_spring_preset():
    prob = bs.preset("cantilever_spring")
    residuals = []
    for k in range(2):
        nodes = 10 * 2**k + 1
        mesh = bs.Mesh(1.0, nodes)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / 40)
        e = bs.energy(bs.run(prob, mesh, grid))
        residuals.append(bs.identity_residual(e))
    assert residuals[0] / residuals[1] >= 3.5


def test_identity_residual_keeps_falling_past_m_241():
    # The step solves for the increment U^j - U^{j-1}, so the rounding error
    # of the one Cholesky factor scales with the increment, not with U^j.
    # Solving for U^j itself left a floor that grew with M: max |residual| /
    # E(0) was 3.6e-7, 1.1e-6 and 7.6e-6 at M = 161, 321 and 481.  The
    # increment form measures 3.7e-7, 9.8e-8 and 4.5e-8, i.e. 95% and 97% of
    # the second-order ratios (320/160)^2 = 4 and (480/320)^2 = 2.25 at
    # dt = h/40; the bounds ask for 80% of them.
    from beamstab import cli

    prob = bs.preset("cantilever_dampers")
    residuals = []
    for nodes in (161, 321, 481):
        mesh = bs.Mesh(prob.length, nodes)
        energy = cli._streamed_energy(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / 40))
        residuals.append(bs.identity_residual(energy) / energy.E0)
    assert residuals[0] / residuals[1] >= 0.8 * 4.0, residuals
    assert residuals[1] / residuals[2] >= 0.8 * 2.25, residuals


def test_undamped_identity_reduces_to_energy_conservation():
    base = bs.preset("cantilever_free")
    prob = dataclasses.replace(base, mu=CoefficientField.constant(0.0),
                               boundary=BoundaryParams())
    report = bs.validate(prob)
    assert report.ok and report.warnings  # undamped warning
    residuals = []
    for nodes, ratio in ((11, 40), (21, 80)):
        mesh = bs.Mesh(1.0, nodes)
        grid = TimeGrid.from_dt(1.0, mesh.h / ratio)
        e = bs.energy(bs.run(prob, mesh, grid))
        assert np.all(e.j_mu == 0.0) and np.all(e.j_a == 0.0) and np.all(e.j_v == 0.0)
        assert e.bound is None and e.L is None
        residuals.append(bs.identity_residual(e))
        assert np.max(np.abs((e.E0 - e.E) - e.residual)) == 0.0
    assert residuals[1] < residuals[0] / 4.0


def test_explicit_lambda_on_undamped_problem_is_rejected():
    prob = dataclasses.replace(bs.preset("cantilever_free"),
                               mu=CoefficientField.constant(0.0),
                               boundary=BoundaryParams())
    trace = bs.run(prob, bs.Mesh(1.0, 9), TimeGrid.from_dt(1.0, 1 / 100))
    with pytest.raises(ValueError, match="penalty"):
        bs.energy(trace, lam=0.1)


def test_auxiliary_rate_identity_constant_coefficients():
    # dJ/dt = 2 int rho u_t^2 - 2E, checked away from the startup layer
    prob = bs.preset("cantilever_dampers")
    defects = []
    for nodes, ratio in ((11, 20), (21, 40), (41, 80)):
        mesh = bs.Mesh(1.0, nodes)
        grid = TimeGrid.from_dt(prob.final_time, mesh.h / ratio)
        trace = bs.run(prob, mesh, grid)
        e = bs.energy(trace)
        dt = grid.dt
        d_j = (e.J[2:] - e.J[:-2]) / (2.0 * dt)
        kin = _kinetic_integrals(trace)[1:-1]   # levels 2..N-3
        defect = np.abs(d_j - (2.0 * kin - 2.0 * e.E[1:-1]))
        sel = e.times[1:-1] >= 0.2
        defects.append(np.max(defect[sel]))
    assert defects[0] / defects[1] >= 3.0
    assert defects[1] / defects[2] >= 3.0


def test_kinetic_integral_reuses_the_system_quadrature(monkeypatch):
    # the energy pass integrates with the quadrature assemble built, however
    # often it runs, and gives the same bytes each time
    import beamstab.fem as fem

    built = []

    class Counted(fem.Quadrature):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fem, "Quadrature", Counted)
    trace = _ne1_trace(nodes=5, ratio=5)
    values = [bs.energy(trace).E for _ in range(5)]
    assert len(built) == 1
    assert all(v.tobytes() == values[0].tobytes() for v in values)


def test_kinetic_integral_on_ne1():
    # exact kinetic weight: int rho u_t^2 = int 4 x^4 e^{-4t} = 0.8 e^{-4t}
    trace = _ne1_trace()
    j = 400
    t = trace.grid.times[j]
    assert _kinetic_integrals(trace)[j - 1] == pytest.approx(0.8 * np.exp(-4.0 * t), rel=1e-3)


def test_energy_csv_export(tmp_path):
    e = bs.energy(_ne1_trace(nodes=9, ratio=10))
    path = tmp_path / "energy.csv"
    bs.export_energy_csv(e, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t, E, J, L, j_mu, j_a, j_v, residual"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(e.times), 8)
    assert data[:, 1] == pytest.approx(e.E)


def _energy_csv_per_row(energy_trace, path):
    """The per-row writer export_energy_csv replaced: the byte oracle."""
    lam_col = energy_trace.L if energy_trace.L is not None \
        else np.full_like(energy_trace.E, np.nan)
    with open(path, "w") as fh:
        fh.write("t, E, J, L, j_mu, j_a, j_v, residual\n")
        for row in zip(energy_trace.times, energy_trace.E, energy_trace.J, lam_col,
                       energy_trace.j_mu, energy_trace.j_a, energy_trace.j_v,
                       energy_trace.residual):
            fh.write(", ".join(f"{v:.17g}" for v in row) + "\n")


def _assert_energy_csv_bytes(energy_trace, tmp_path):
    bs.export_energy_csv(energy_trace, tmp_path / "block.csv")
    _energy_csv_per_row(energy_trace, tmp_path / "row.csv")
    block = (tmp_path / "block.csv").read_bytes()
    assert block == (tmp_path / "row.csv").read_bytes()
    return block


@pytest.mark.parametrize("levels", [CHUNK_LEVELS - 1, CHUNK_LEVELS, CHUNK_LEVELS + 1,
                                    3 * CHUNK_LEVELS + 5])
@pytest.mark.parametrize("with_lyapunov", [True, False])
def test_energy_csv_bytes_match_the_per_row_writer(tmp_path, levels, with_lyapunov):
    # signed zero, subnormals, exponent-form and extreme values in every column
    special = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e300,
               -1.7976931348623157e308, 1e17, 1.0000000000000002]
    rng = np.random.default_rng(levels)
    cols = rng.standard_normal((8, levels)) * 10.0 ** rng.integers(-40, 40, (8, levels))
    for c in range(8):
        cols[c, :len(special)] = np.roll(special, c)
        cols[c, -len(special):] = np.roll(special, -c)
    e = dataclasses.replace(
        bs.energy(_rest_trace()), times=cols[0], E=cols[1], J=cols[2],
        L=cols[3] if with_lyapunov else None, j_mu=cols[4], j_a=cols[5], j_v=cols[6],
        residual=cols[7])
    block = _assert_energy_csv_bytes(e, tmp_path)
    assert block.count(b"\n") == levels + 1
    assert (b", nan, " in block) == (not with_lyapunov)


def test_energy_csv_of_a_damped_run_matches_the_per_row_writer(tmp_path):
    # a cantilever_dampers run at M = 41, dt = h/40, as `simulate` writes it
    prob = bs.preset("cantilever_dampers")
    mesh = bs.Mesh(prob.length, 41)
    e = bs.energy(bs.run(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / 40)))
    assert e.L is not None and len(e.times) > 3000
    _assert_energy_csv_bytes(e, tmp_path)


def test_energy_csv_of_forced_and_unset_lyapunov_runs_matches_the_per_row_writer(tmp_path):
    forced = bs.energy(_ne1_trace(nodes=9, ratio=10))
    assert forced.forced and forced.L is not None
    _assert_energy_csv_bytes(forced, tmp_path)
    undamped = dataclasses.replace(bs.preset("cantilever_free"),
                                   mu=CoefficientField.constant(0.0),
                                   boundary=BoundaryParams())
    e = bs.energy(bs.run(undamped, bs.Mesh(1.0, 9), TimeGrid(1.0, 2 * CHUNK_LEVELS + 3)))
    assert e.L is None
    assert b", nan, " in _assert_energy_csv_bytes(e, tmp_path)


# ---------------------------------------------------------------------------
# streamed field kernel: matrix-form oracle across block seams, bounded memory
# ---------------------------------------------------------------------------

def _all_ends_problem():
    # variable coefficients and all four end constants, so every weight and
    # every boundary term of the energy functionals is exercised
    return dataclasses.replace(
        bs.preset("cantilever_dampers"),
        rho=CoefficientField.polynomial((1.0, 0.5)),
        mu=CoefficientField.table((0.0, 0.5, 1.0), (1.0, 2.0, 0.5)),
        rigidity=CoefficientField.polynomial((1.0, 0.3)),
        boundary=BoundaryParams(k_r=1.0, k_d=2.0, k_a=1.0, k_v=0.5))


@pytest.mark.parametrize("offset", ["c-1", "c", "c+1", "2c+1"])
def test_basis_energy_matches_matrix_forms_across_blocks(offset):
    # oracle: with the assembled matrices, E = 1/2 v'Mv + 1/2 u'Ku and
    # J = u'Mv + 1/2 u'Cu at every interior level (u = U^j, v the centered
    # quotient).  The interior level counts sit just below, at and just
    # above one block length and one level past two, so the last block is
    # partial, exactly full, a single level, or follows two full blocks.
    c = CHUNK_LEVELS
    interior = {"c-1": c - 1, "c": c, "c+1": c + 1, "2c+1": 2 * c + 1}[offset]
    prob = _all_ends_problem()
    trace = bs.run(prob, bs.Mesh(1.0, 11), TimeGrid(prob.final_time, interior + 2))
    e = bs.energy(trace)
    system, hist = trace.system, trace.dof_history
    u = hist[1:-1]
    v = (hist[2:] - hist[:-2]) / (2.0 * trace.grid.dt)
    m, c_mat, k = (a.to_dense() for a in (system.mass, system.damping, system.stiffness))

    def form(a, mat, b):
        return np.einsum("ti,ij,tj->t", a, mat, b)

    e_oracle = 0.5 * form(v, m, v) + 0.5 * form(u, k, u)
    j_oracle = form(u, m, v) + 0.5 * form(u, c_mat, u)
    # Round-off in either form scales with the summed magnitudes of the
    # terms, not with E: u'Ku cancels by up to cond(K) ~ h^-4, so E itself
    # can sit 2e4 times below them here.  Measured differences on this
    # scale are <= 1.1e-15 for M = 5..81 and up to 2000 levels.
    e_scale = 0.5 * form(abs(v), abs(m), abs(v)) + 0.5 * form(abs(u), abs(k), abs(u))
    j_scale = form(abs(u), abs(m), abs(v)) + 0.5 * form(abs(u), abs(c_mat), abs(u))
    assert len(e.E) == interior
    assert np.all(np.abs(e.E - e_oracle) <= 1e-12 * e_scale)
    assert np.all(np.abs(e.J - j_oracle) <= 1e-12 * j_scale)


def test_accumulator_rejects_a_window_that_is_not_the_next():
    # the windows of fem.windows, fed in order, give the stored results
    # bitwise, the damper-only window included; a window that leaves a gap
    # or overlaps the one before by more than its two shared levels is
    # refused and changes nothing, and so is an early result()
    prob = bs.preset("mast_constant")
    trace = bs.run(prob, bs.Mesh(1.0, 11), TimeGrid(prob.final_time, 3 * CHUNK_LEVELS + 9))
    hist = trace.dof_history
    acc = bs.EnergyAccumulator(trace.system, trace.grid)
    with pytest.raises(ValueError, match="not the next one, at level 0"):
        acc.add(hist[1:10], 1)
    acc.add(hist[:66], 0)
    with pytest.raises(ValueError, match="not the next one, at level 64"):
        acc.add(hist[65:131], 65)   # a gap: interior level 65 needs level 64
    with pytest.raises(ValueError, match="not the next one, at level 64"):
        acc.add(hist[63:129], 63)   # an overlap: interior level 64 again
    acc.add(hist[64:130], 64)
    with pytest.raises(ValueError, match="never added"):
        acc.result()
    for first, stop in list(windows(len(hist)))[2:]:
        acc.add(hist[first:stop], first)
    streamed, stored = acc.result(), bs.energy(trace)
    assert streamed.bound is not None and streamed.bound == stored.bound
    for name in ("E", "J", "L", "j_mu", "j_a", "j_v", "residual"):
        assert getattr(streamed, name).tobytes() == getattr(stored, name).tobytes(), name


def test_energy_and_window_memory_stays_below_half_the_history():
    # the fields are streamed over blocks of levels, so the extra memory is
    # a few blocks and does not grow with the history (about 8 MB here)
    prob = bs.preset("mast_constant")
    mesh = bs.Mesh(1.0, 81)
    trace = bs.run(prob, mesh, TimeGrid.from_dt(prob.final_time, mesh.h / 40))
    limit = trace.dof_history.nbytes / 2
    tracemalloc.start()
    try:
        e = bs.energy(trace)
        energy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.dof_history.nbytes > 8e6
    assert energy_peak < limit
    assert e.bound is not None   # the damper-only window came out of the same pass
