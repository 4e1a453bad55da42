"""Finite element layer: shapes, assembly, banded storage, evaluation."""

import dataclasses

import numpy as np
import pytest

import beamstab.fem as fem
from beamstab import problem as pb

# independent shape definitions for oracle integration (coefficient arrays
# for np.polyval, highest power first); slope shapes scale by h separately
HERMITE_POLYS = [
    np.array([2.0, -3.0, 0.0, 1.0]),   # 1 - 3 s^2 + 2 s^3
    np.array([1.0, -2.0, 1.0, 0.0]),   # s - 2 s^2 + s^3
    np.array([-2.0, 3.0, 0.0, 0.0]),   # 3 s^2 - 2 s^3
    np.array([1.0, -1.0, 0.0, 0.0]),   # -s^2 + s^3
]


def _oracle_element_matrices(h, rho_fn, r_fn, points=50):
    """Dense element mass/stiffness via high-order Gauss on [0, h]."""
    s, w = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    scale = np.array([1.0, h, 1.0, h])
    vals = np.stack([np.polyval(p, s) for p in HERMITE_POLYS]) * scale[:, None]
    d2 = np.stack([np.polyval(np.polyder(p, 2), s) for p in HERMITE_POLYS])
    d2 = d2 * (scale / h**2)[:, None]
    x = h * s
    m = h * np.einsum("q,aq,bq->ab", w * rho_fn(x), vals, vals)
    k = h * np.einsum("q,aq,bq->ab", w * r_fn(x), d2, d2)
    return m, k


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------

def test_shapes_interpolate_at_left_node():
    assert fem.hermite_shapes(0.0, 0.5)[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_shapes_interpolate_at_right_node():
    assert fem.hermite_shapes(1.0, 0.5)[:, 0] == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_shapes_at_midpoint():
    vals = fem.hermite_shapes(0.5, 1.0)[:, 0]
    assert vals == pytest.approx([0.5, 0.125, 0.5, -0.125], abs=1e-15)


def test_value_shapes_partition_of_unity():
    for xi in np.linspace(0.0, 1.0, 11):
        s = fem.hermite_shapes(xi, 0.3)
        assert s[0, 0] + s[2, 0] == pytest.approx(1.0, abs=1e-14)


def test_shape_derivatives_match_finite_differences():
    h, xi, eps = 0.7, 0.37, 1e-6
    s0 = fem.hermite_shapes(xi - eps, h)
    s1 = fem.hermite_shapes(xi + eps, h)
    mid = fem.hermite_shapes(xi, h)
    dx = 2 * eps * h  # physical step
    assert (s1[:, 0] - s0[:, 0]) / dx == pytest.approx(mid[:, 1], rel=1e-7, abs=1e-8)
    assert (s1[:, 1] - s0[:, 1]) / dx == pytest.approx(mid[:, 2], rel=1e-7, abs=1e-8)


def test_shapes_reject_outside_reference_element():
    with pytest.raises(ValueError):
        fem.hermite_shapes(1.2, 1.0)


def _hermite_shapes_array_form(xi, h):
    """The array-building formula hermite_shapes replaced: the bitwise oracle."""
    v = np.array([
        1.0 - 3.0 * xi**2 + 2.0 * xi**3,
        xi - 2.0 * xi**2 + xi**3,
        3.0 * xi**2 - 2.0 * xi**3,
        -(xi**2) + xi**3,
    ])
    d1 = np.array([
        -6.0 * xi + 6.0 * xi**2,
        1.0 - 4.0 * xi + 3.0 * xi**2,
        6.0 * xi - 6.0 * xi**2,
        -2.0 * xi + 3.0 * xi**2,
    ])
    d2 = np.array([
        -6.0 + 12.0 * xi,
        -4.0 + 6.0 * xi,
        6.0 - 12.0 * xi,
        -2.0 + 6.0 * xi,
    ])
    scale = np.array([1.0, h, 1.0, h])
    deriv = np.array([1.0 / h, 1.0 / h, 1.0 / h, 1.0 / h])
    out = np.empty((4, 3))
    out[:, 0] = scale * v
    out[:, 1] = scale * deriv * d1
    out[:, 2] = scale * deriv**2 * d2
    return out


def test_shapes_are_bitwise_the_array_formula():
    rng = np.random.default_rng(5)
    xis = np.concatenate([np.linspace(0.0, 1.0, 101), rng.random(200)])
    hs = [1.0, 0.5, 0.3, 0.7, 1 / 40, 1 / 320, 7 / 33, 3.7, np.float64(1 / 160)]
    hs += list(rng.uniform(1e-3, 2.0, 8))
    for h in hs:
        for x in xis:
            for xi in (float(x), x):  # Python and numpy scalars take different paths
                got, want = fem.hermite_shapes(xi, h), _hermite_shapes_array_form(xi, h)
                assert got.shape == (4, 3) and got.dtype == np.float64
                assert np.array_equal(got, want), (xi, h)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (xi, h)


# ---------------------------------------------------------------------------
# element matrices against the 50-point oracle
# ---------------------------------------------------------------------------

def _unit_problem(rho=1.0, r=1.0):
    return pb.BeamProblem(
        length=1.0, final_time=1.0,
        rho=pb.CoefficientField.constant(rho),
        mu=pb.CoefficientField.constant(0.0),
        rigidity=pb.CoefficientField.constant(r),
        boundary=pb.BoundaryParams(),
        initial=pb.InitialData(u0=pb.SpatialProfile.polynomial((0.0, 0.0, 1.0)),
                               u1=pb.SpatialProfile.polynomial((0.0,))),
    )


def test_element_mass_matrix_first_row():
    # single element with h = 1: the classic consistent-mass first row
    m_e, _, _ = fem.element_matrices(_unit_problem(), 0.0, 1.0)
    assert m_e[0] == pytest.approx([13 / 35, 11 / 210, 9 / 70, -13 / 420], rel=1e-12)
    oracle, _ = _oracle_element_matrices(1.0, lambda x: np.ones_like(x),
                                         lambda x: np.ones_like(x))
    assert np.max(np.abs(m_e - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_element_stiffness_matrix_first_row():
    _, _, k_e = fem.element_matrices(_unit_problem(), 0.0, 1.0)
    assert k_e[0] == pytest.approx([12.0, 6.0, -12.0, 6.0], rel=1e-12)
    _, oracle = _oracle_element_matrices(1.0, lambda x: np.ones_like(x),
                                         lambda x: np.ones_like(x))
    assert np.max(np.abs(k_e - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_variable_coefficient_element_matches_oracle():
    prob = dataclasses.replace(
        _unit_problem(),
        rho=pb.CoefficientField.polynomial((1.0, 0.5, 0.25)),
        rigidity=pb.CoefficientField.polynomial((1.0, 1.0)))
    h = 0.25
    for x0 in (0.0, 0.25, 0.5, 0.75):
        m_e, _, k_e = fem.element_matrices(prob, x0, h)
        om, ok = _oracle_element_matrices(
            h, lambda s: prob.rho(x0 + s), lambda s: prob.rigidity(x0 + s))
        assert np.max(np.abs(m_e - om)) <= 1e-12 * np.max(np.abs(om))
        assert np.max(np.abs(k_e - ok)) <= 1e-12 * np.max(np.abs(ok))


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------

def test_boundary_constants_add_to_end_diagonals():
    base = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 9))
    spring_free = dataclasses.replace(pb.preset("test_NE1"),
                                      boundary=pb.BoundaryParams())
    bare = fem.assemble(spring_free, fem.Mesh(1.0, 9))
    n = base.n
    assert base.stiffness.entry(n - 2, n - 2) - bare.stiffness.entry(n - 2, n - 2) \
        == pytest.approx(4.0, abs=1e-14)
    assert base.stiffness.entry(n - 1, n - 1) - bare.stiffness.entry(n - 1, n - 1) \
        == pytest.approx(6.0, abs=1e-14)
    assert base.damping.entry(n - 2, n - 2) - bare.damping.entry(n - 2, n - 2) \
        == pytest.approx(2.0, abs=1e-14)
    assert base.damping.entry(n - 1, n - 1) - bare.damping.entry(n - 1, n - 1) \
        == pytest.approx(3.0, abs=1e-14)


def test_load_vector_carries_end_forcing():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 9))
    f = system.load(0.0)
    n = system.n
    # weak form flips the sign of the extra end moment/shear
    assert f[n - 2] == pytest.approx(-2.0)
    assert f[n - 1] == pytest.approx(4.0)
    assert np.all(f[:-2] == 0.0)


def test_matrices_are_exactly_symmetric():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    for mat in (system.mass, system.damping, system.stiffness):
        dense = mat.to_dense()
        assert np.array_equal(dense, dense.T)


def test_definiteness():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    n = system.n
    # smallest mass eigenvalue via a few inverse-power iterations
    solve = system.mass.factor()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    for _ in range(30):
        x = solve.solve(x)
        x /= np.linalg.norm(x)
    lam_min = x @ system.mass.matvec(x)
    assert lam_min > 0.0
    for _ in range(100):
        v = rng.standard_normal(n)
        assert v @ system.damping.matvec(v) >= 0.0
        assert v @ system.stiffness.matvec(v) > 0.0


def test_quadrature_exactness_for_constant_coefficients():
    prob = pb.preset("cantilever_dampers")
    a = fem.assemble(prob, fem.Mesh(1.0, 9), quad_points=4)
    b = fem.assemble(prob, fem.Mesh(1.0, 9), quad_points=10)
    for m_a, m_b in ((a.mass, b.mass), (a.damping, b.damping),
                     (a.stiffness, b.stiffness)):
        scale = np.max(np.abs(m_b.bands))
        assert np.max(np.abs(m_a.bands - m_b.bands)) <= 1e-12 * scale


def test_banded_assembly_equals_dense_naive_assembly():
    # oracle: scatter oracle element matrices into a dense global matrix
    prob = dataclasses.replace(
        _unit_problem(),
        rho=pb.CoefficientField.polynomial((1.0, 0.3)),
        mu=pb.CoefficientField.constant(0.5),
        rigidity=pb.CoefficientField.polynomial((2.0, -0.5)))
    mesh = fem.Mesh(1.0, 6)
    system = fem.assemble(prob, mesh)
    n, h = system.n, mesh.h
    dense_m = np.zeros((n, n))
    dense_k = np.zeros((n, n))
    for e in range(mesh.element_count):
        x0 = mesh.nodes[e]
        om, ok = _oracle_element_matrices(
            h, lambda s: prob.rho(x0 + s), lambda s: prob.rigidity(x0 + s))
        dofs = system.dof_map.element_dofs(e)
        for a in range(4):
            for b in range(4):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    dense_m[dofs[a], dofs[b]] += om[a, b]
                    dense_k[dofs[a], dofs[b]] += ok[a, b]
    assert np.max(np.abs(system.mass.to_dense() - dense_m)) \
        <= 1e-12 * np.max(np.abs(dense_m))
    assert np.max(np.abs(system.stiffness.to_dense() - dense_k)) \
        <= 1e-12 * np.max(np.abs(dense_k))


def test_low_quadrature_rejected():
    with pytest.raises(ValueError, match="quad_points"):
        fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 5), quad_points=3)


def test_invalid_problem_rejected():
    bad = dataclasses.replace(pb.preset("test_NE1"),
                              rigidity=pb.CoefficientField.constant(0.0))
    with pytest.raises(ValueError, match="invalid problem"):
        fem.assemble(bad, fem.Mesh(1.0, 5))


# ---------------------------------------------------------------------------
# banded symmetric matrices
# ---------------------------------------------------------------------------

def test_matvec_matches_dense():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    rng = np.random.default_rng(3)
    dense = system.stiffness.to_dense()
    for _ in range(5):
        x = rng.standard_normal(system.n)
        assert system.stiffness.matvec(x) == pytest.approx(dense @ x, rel=1e-13)


def test_banded_cholesky_solves():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    rng = np.random.default_rng(4)
    b = rng.standard_normal(system.n)
    x = system.stiffness.factor().solve(b)
    assert system.stiffness.to_dense() @ x == pytest.approx(b, rel=1e-10)


def test_banded_in_place_kernels_and_factor_time_checks():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    solve = system.stiffness.factor()
    b = np.random.default_rng(5).standard_normal(system.n)
    x = b.copy()
    solve.solve_in_place(x)
    assert np.array_equal(x, solve.solve(b))
    y = np.empty(system.n)
    assert system.stiffness.matvec(x, out=y) is y
    assert np.array_equal(y, system.stiffness.matvec(x))
    with pytest.raises(ValueError, match="contiguous"):
        solve.solve_in_place(np.zeros(2 * system.n)[::2])

    indefinite = system.stiffness.copy()
    indefinite.add(4, 4, -1e9)
    with pytest.raises(np.linalg.LinAlgError,
                       match="not positive definite.*5-th leading minor"):
        indefinite.factor()
    not_finite = system.stiffness.copy()
    not_finite.add(2, 3, np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        not_finite.factor()


def test_combine_linear_combination():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 7))
    combo = fem.combine([(2.0, system.mass), (-0.5, system.stiffness)])
    expect = 2.0 * system.mass.to_dense() - 0.5 * system.stiffness.to_dense()
    assert np.max(np.abs(combo.to_dense() - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_out_of_band_entry_rejected():
    m = fem.BandedSymmetricMatrix(8, 3)
    with pytest.raises(IndexError):
        m.add(0, 4, 1.0)
    assert m.entry(0, 7) == 0.0


@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_system_matrices_equal_the_dense_element_scatter(name):
    # oracle: each element's matrices added into dense globals in element
    # order through DofMap.element_dofs, then the end constants; the banded
    # upper triangle holds the same sums, so the match is exact
    prob = pb.preset(name)
    mesh = fem.Mesh(prob.length, 7)
    system = fem.assemble(prob, mesh)
    n = system.n
    dense = np.zeros((3, n, n))
    for e in range(mesh.element_count):
        local = fem.element_matrices(prob, mesh.nodes[e], mesh.h)
        dofs = system.dof_map.element_dofs(e)
        free = np.flatnonzero(dofs >= 0)
        for d, m_e in zip(dense, local):
            d[np.ix_(dofs[free], dofs[free])] += m_e[np.ix_(free, free)]
    bc = prob.boundary
    dense[1, n - 2, n - 2] += bc.k_v
    dense[1, n - 1, n - 1] += bc.k_a
    dense[2, n - 2, n - 2] += bc.k_d
    dense[2, n - 1, n - 1] += bc.k_r
    for d, mat in zip(dense, (system.mass, system.damping, system.stiffness)):
        upper = np.triu(d)
        assert np.array_equal(mat.to_dense(), upper + np.triu(d, 1).T)
        assert np.any(upper)


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------

def test_zero_dofs_evaluate_to_zero():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 7))
    assert fem.evaluate_solution(system, np.zeros(system.n), 0.37) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("nodes", [3, 9, 33])
def test_cubic_interpolation_is_exact(nodes):
    # 2x^2 - 0.7x^3 satisfies the clamp and lies in the Hermite space
    prob = _unit_problem()
    system = fem.assemble(prob, fem.Mesh(1.0, nodes))
    poly = pb.SpatialProfile.polynomial((0.0, 0.0, 2.0, -0.7))
    dofs = fem.interpolate_profile(poly, system.mesh, system.dof_map)
    for x in np.linspace(0.0, 1.0, 23):
        u, ux, uxx = fem.evaluate_solution(system, dofs, x)
        assert abs(u - float(poly(x))) <= 1e-10
        assert abs(ux - float(poly.d1(x))) <= 1e-10
        assert abs(uxx - float(poly.d2(x))) <= 1e-10


def _evaluate_solution_padded_row(system, dofs, x):
    """The evaluate_solution that padded the whole row: the bitwise oracle."""
    dofs = np.asarray(dofs, dtype=float)
    mesh = system.mesh
    if not (0.0 <= x <= mesh.length * (1.0 + 1e-12)):
        raise ValueError(f"x = {x} outside [0, {mesh.length}]")
    h = mesh.h
    node = int(round(x / h))
    if abs(x - node * h) <= 1e-12 * mesh.length and node >= 1:
        e = min(node - 1, mesh.element_count - 1)
    else:
        e = min(int(x / h), mesh.element_count - 1)
    xi = (x - mesh.nodes[e]) / mesh.h
    xi = min(max(xi, 0.0), 1.0)
    local = np.concatenate(([0.0, 0.0], dofs))[2 * e:2 * e + 4]
    s = fem.hermite_shapes(xi, mesh.h)
    return tuple(float(local @ s[:, k]) for k in range(3))


@pytest.mark.parametrize("nodes", [3, 7, 41])
def test_evaluate_solution_is_bitwise_the_padded_row_formula(nodes):
    system = fem.assemble(_unit_problem(), fem.Mesh(1.0, nodes))
    rng = np.random.default_rng(nodes)
    rows = rng.standard_normal((2, system.n)) * np.array([[1.0], [1e-300]])
    rows[0, :4] = (-0.0, 0.0, -0.0, 3e300)
    h = system.mesh.h
    # element 0, an interior and the last element, every node, xi = 0 and 1
    # from either side, points near nodes, and the far end's tolerance band
    xs = [0.0, 0.3 * h, h, (nodes // 2 + 0.6) * h, 1.0 - 0.2 * h, 1.0, 1.0 + 5e-13]
    xs += list(system.mesh.nodes)
    xs += [x + d for x in system.mesh.nodes[1:-1] for d in (-1e-13, 1e-13, -1e-9, 1e-9)]
    xs += list(rng.random(40))
    strided = np.repeat(rows[0], 2)[::2]  # a non-contiguous view of row 0
    for dofs in (rows[0], rows[1], strided, list(rows[0])):
        for x in xs:
            for point in (float(x), np.float64(x)):
                got = fem.evaluate_solution(system, dofs, point)
                want = _evaluate_solution_padded_row(system, dofs, point)
                assert all(type(v) is float for v in got)
                assert np.array_equal(got, want), (x, dofs is strided)
                assert np.array_equal(np.signbit(got), np.signbit(want)), x
    for x in (-1e-300, 1.0 + 1e-11):
        with pytest.raises(ValueError, match="outside"):
            fem.evaluate_solution(system, rows[0], x)


def _interpolate_profile_per_node(profile, mesh, dof_map):
    """The per-node loop interpolate_profile replaced: the bitwise oracle."""
    out = np.zeros(dof_map.n_free)
    for node in range(1, mesh.node_count):
        x = mesh.nodes[node]
        out[dof_map.disp_dof(node)] = float(profile(x))
        out[dof_map.rot_dof(node)] = float(profile.d1(x))
    return out


@pytest.mark.parametrize("profile", [
    pb.SpatialProfile.polynomial((0.0,)),
    pb.SpatialProfile.polynomial((0.0, 0.0, 2.0, -0.7, 0.31, -1e-3)),
    pb.SpatialProfile.table((0.0, 0.2, 0.45, 0.7, 1.0), (0.0, 0.1, -0.3, 0.25, 1.0),
                            clamp_left=True),
    pb.SpatialProfile.table((0.0, 0.3, 0.5, 0.8, 1.0), (1.0, -2.0, 0.5, 0.0, 3.0)),
], ids=["zero", "polynomial", "clamped-table", "table"])
@pytest.mark.parametrize("nodes", [3, 17, 41])
def test_interpolate_profile_is_bitwise_the_per_node_loop(profile, nodes):
    mesh = fem.Mesh(1.0, nodes)
    dof_map = fem.DofMap(nodes)
    got = fem.interpolate_profile(profile, mesh, dof_map)
    want = _interpolate_profile_per_node(profile, mesh, dof_map)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_ne1_initial_interpolant_end_values():
    prob = pb.preset("test_NE1")
    system = fem.assemble(prob, fem.Mesh(1.0, 9))
    dofs = fem.interpolate_profile(prob.initial.u0, system.mesh, system.dof_map)
    u, ux, _ = fem.evaluate_solution(system, dofs, 1.0)
    assert u == pytest.approx(1.0, abs=1e-12)
    assert ux == pytest.approx(2.0, abs=1e-12)


def test_interior_node_returns_left_element_curvature():
    system = fem.assemble(_unit_problem(), fem.Mesh(1.0, 5))
    rng = np.random.default_rng(11)
    dofs = rng.standard_normal(system.n)
    x_node = system.mesh.nodes[2]
    _, _, at_node = fem.evaluate_solution(system, dofs, x_node)
    _, _, left = fem.evaluate_solution(system, dofs, x_node - 1e-9)
    _, _, right = fem.evaluate_solution(system, dofs, x_node + 1e-9)
    assert abs(at_node - left) < 1e-6
    assert abs(at_node - right) > 1e-3  # genuine curvature jump across the node


def test_evaluate_outside_domain_rejected():
    system = fem.assemble(_unit_problem(), fem.Mesh(1.0, 5))
    with pytest.raises(ValueError):
        fem.evaluate_solution(system, np.zeros(system.n), 1.5)


def test_mesh_invariants():
    mesh = fem.Mesh(2.0, 9)
    assert mesh.h == pytest.approx(0.25)
    spacing = np.diff(mesh.nodes)
    assert np.max(np.abs(spacing - mesh.h)) <= 1e-12 * mesh.h
    with pytest.raises(ValueError):
        fem.Mesh(1.0, 2)


def test_dof_map_eliminates_clamped_node():
    dmap = fem.DofMap(5)
    assert dmap.disp_dof(0) == -1 and dmap.rot_dof(0) == -1
    assert dmap.n_free == 8
    assert list(dmap.element_dofs(0)) == [-1, -1, 0, 1]
    assert list(dmap.element_dofs(3)) == [4, 5, 6, 7]
