"""Finite element layer: shapes, assembly, banded storage, evaluation."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from oracles import element_matrices, gauss_element_matrices

import beamstab.fem as fem
from beamstab import problem as pb
from beamstab import stepper

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
    m_e, _, _ = element_matrices(_unit_problem(), 0.0, 1.0)
    assert m_e[0] == pytest.approx([13 / 35, 11 / 210, 9 / 70, -13 / 420], rel=1e-12)
    oracle, _ = gauss_element_matrices(1.0, np.ones_like, np.ones_like)
    assert np.max(np.abs(m_e - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_element_stiffness_matrix_first_row():
    _, _, k_e = element_matrices(_unit_problem(), 0.0, 1.0)
    assert k_e[0] == pytest.approx([12.0, 6.0, -12.0, 6.0], rel=1e-12)
    _, oracle = gauss_element_matrices(1.0, np.ones_like, np.ones_like)
    assert np.max(np.abs(k_e - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_variable_coefficient_element_matches_oracle():
    prob = dataclasses.replace(
        _unit_problem(),
        rho=pb.CoefficientField.polynomial((1.0, 0.5, 0.25)),
        rigidity=pb.CoefficientField.polynomial((1.0, 1.0)))
    h = 0.25
    for x0 in (0.0, 0.25, 0.5, 0.75):
        m_e, _, k_e = element_matrices(prob, x0, h)
        om, ok = gauss_element_matrices(
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
    k = base.stiffness.to_dense() - bare.stiffness.to_dense()
    c = base.damping.to_dense() - bare.damping.to_dense()
    assert k[-2, -2] == pytest.approx(4.0, abs=1e-14)
    assert k[-1, -1] == pytest.approx(6.0, abs=1e-14)
    assert c[-2, -2] == pytest.approx(2.0, abs=1e-14)
    assert c[-1, -1] == pytest.approx(3.0, abs=1e-14)


def test_load_vector_carries_end_forcing():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 9))
    # the load's only entries that can be nonzero, those of the end
    # displacement and end slope DOFs; the weak form flips the sign of the
    # extra end moment/shear
    f = system.end_load(0.0)
    assert f == pytest.approx([-2.0, 4.0])


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
        solve.solve_in_place(x)
        x /= np.linalg.norm(x)
    lam_min = x @ system.mass.to_dense() @ x
    assert lam_min > 0.0
    for _ in range(100):
        v = rng.standard_normal(n)
        assert v @ system.damping.to_dense() @ v >= 0.0
        assert v @ system.stiffness.to_dense() @ v > 0.0


def test_banded_assembly_equals_dense_naive_assembly():
    # oracle: 50-point Gauss element matrices scattered into dense globals
    # (the mass-type oracle with mu in place of rho gives the damping); the
    # assembled rule must integrate the polynomial coefficients exactly
    prob = dataclasses.replace(
        _unit_problem(),
        rho=pb.CoefficientField.polynomial((1.0, 0.3)),
        mu=pb.CoefficientField.polynomial((0.5, -0.2, 0.4, 0.1)),
        rigidity=pb.CoefficientField.polynomial((2.0, -0.5)))
    mesh = fem.Mesh(1.0, 6)
    system = fem.assemble(prob, mesh)
    n, h = system.n, mesh.h
    dense = np.zeros((3, n, n))
    for e in range(mesh.element_count):
        x0 = mesh.nodes[e]
        om, ok = gauss_element_matrices(
            h, lambda s: prob.rho(x0 + s), lambda s: prob.rigidity(x0 + s))
        oc, _ = gauss_element_matrices(
            h, lambda s: prob.mu(x0 + s), lambda s: prob.rigidity(x0 + s))
        for a in range(4):
            for b in range(4):
                ga, gb = 2 * e - 2 + a, 2 * e - 2 + b
                if ga >= 0 and gb >= 0:
                    dense[:, ga, gb] += om[a, b], oc[a, b], ok[a, b]
    for d, mat in zip(dense, (system.mass, system.damping, system.stiffness)):
        assert np.max(np.abs(mat.to_dense() - d)) <= 1e-12 * np.max(np.abs(d))


def test_invalid_problem_rejected():
    bad = dataclasses.replace(pb.preset("test_NE1"),
                              rigidity=pb.CoefficientField.constant(0.0))
    with pytest.raises(ValueError, match="invalid problem"):
        fem.assemble(bad, fem.Mesh(1.0, 5))


# ---------------------------------------------------------------------------
# banded symmetric matrices
# ---------------------------------------------------------------------------

def test_banded_cholesky_solves():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    rng = np.random.default_rng(4)
    b = rng.standard_normal(system.n)
    x = b.copy()
    system.stiffness.factor().solve_in_place(x)
    assert system.stiffness.to_dense() @ x == pytest.approx(b, rel=1e-10)


def test_banded_in_place_kernels_and_factor_time_checks(kernels):
    # both kinds of factor keep one contract, error texts included; a banded
    # solve is bitwise scipy's banded Cholesky (a dense one is checked below)
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 11))
    largest = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 81))   # n = DENSE_MAX_N
    for kind, factor in (("dense", fem.DenseCholesky), ("banded", fem.BandedCholesky)):
        kernels(kind)
        solve = system.stiffness.factor()
        assert type(solve) is factor
        with pytest.raises(ValueError, match="^rhs must be a contiguous float64 vector$"):
            solve.solve_in_place(np.zeros(2 * system.n)[::2])

        # the first, a middle and the last leading minor fail; the middle one
        # of the n = 160 matrix is where a search over leading blocks once
        # found the order for the dense kind
        for matrix, entry, minor in ((system, 4, 5), (system, 0, 1),
                                     (system, system.n - 1, system.n), (largest, 77, 78)):
            indefinite = fem.combine([(1.0, matrix.stiffness)])
            indefinite.add(entry, entry, -1e9)
            with pytest.raises(np.linalg.LinAlgError, match=(
                    r"^banded Cholesky failed \(matrix not positive definite\): "
                    f"{minor}-th leading minor not positive definite$")):
                indefinite.factor()
        not_finite = fem.combine([(1.0, system.stiffness)])
        not_finite.add(2, 3, np.nan)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^banded Cholesky failed \(matrix not finite\)$"):
            not_finite.factor()
    b = np.random.default_rng(5).standard_normal(system.n)
    x = b.copy()
    fem.BandedCholesky(system.stiffness).solve_in_place(x)
    assert np.array_equal(x, scipy.linalg.cho_solve_banded(
        (scipy.linalg.cholesky_banded(system.stiffness.bands), False), b))


@pytest.mark.parametrize("name", pb.PRESET_NAMES)
def test_dense_inverse_and_solve_on_the_step_matrices(monkeypatch, name):
    # the step and startup matrices a run factors, at every dense size of
    # M = 21 to 81 (n = 40 to 160, dt = h/40).  Measured over the five
    # presets: max|S X - I| at most 2.7e-13 (cantilever_spring, M = 81; the
    # inverse np.linalg.inv gave reached 1.2e-13), and a dense solve within
    # 4.9e-15 of max|x| of LAPACK's banded one (cantilever_free, M = 81)
    matrices, factor = [], fem.BandedSymmetricMatrix.factor
    monkeypatch.setattr(fem.BandedSymmetricMatrix, "factor",
                        lambda self: matrices.append(self) or factor(self))
    prob = pb.preset(name)
    for nodes in range(21, 82, 10):
        mesh = fem.Mesh(prob.length, nodes)
        grid = stepper.TimeGrid.from_dt(prob.final_time, mesh.h / 40)
        stepper.TimeStepper(fem.assemble(prob, mesh), grid)._operators   # factors both
    assert [m.n for m in matrices] == [2 * (nodes - 1) for nodes in range(21, 82, 10)
                                       for _ in range(2)]
    for matrix in matrices:
        dense = fem.DenseCholesky(matrix)
        assert np.max(np.abs(matrix.to_dense() @ dense._inverse - np.eye(matrix.n))) < 1e-12
        b = np.random.default_rng(matrix.n).standard_normal(matrix.n)
        x, y = b.copy(), b.copy()
        dense.solve_in_place(x)
        fem.BandedCholesky(matrix).solve_in_place(y)
        assert np.max(np.abs(x - y)) < 2.5e-14 * np.max(np.abs(y))


@pytest.mark.parametrize("name", pb.PRESET_NAMES + ("polynomial_table",))
def test_banded_block_rows_store_the_nonzero_entries_of_the_dense_blocks(monkeypatch, name):
    # the history operator and the startup's block row a run builds above
    # DENSE_MAX_N (M = 82: n = 162; M = 321: n = 640): the dense blocks side
    # by side, exactly, with no stored zero (the slope of node k against the
    # displacement of node k + 2 is one), int32 indices and canonical format
    rows, block_row = [], stepper.block_row

    def recorded(matrices):
        rows.append((matrices, block_row(matrices)))
        return rows[-1][1]

    monkeypatch.setattr(stepper, "block_row", recorded)
    prob = _polynomial_table_problem() if name == "polynomial_table" else pb.preset(name)
    for nodes in (82, 321):
        mesh = fem.Mesh(prob.length, nodes)
        grid = stepper.TimeGrid.from_dt(prob.final_time, mesh.h / 40)
        stepper.TimeStepper(fem.assemble(prob, mesh), grid)._operators
    assert [len(matrices) for matrices, _ in rows] == [3, 2, 3, 2]
    for matrices, csr in rows:
        assert matrices[0].n > fem.DENSE_MAX_N
        dense = np.hstack([mat.to_dense() for mat in matrices])
        assert np.array_equal(csr.toarray(), dense)
        n = matrices[0].n
        assert csr.nnz == np.count_nonzero(dense) < len(matrices) * (7 * n - 12)   # the band
        assert csr.indices.dtype == csr.indptr.dtype == np.int32
        assert csr.has_canonical_format


def test_combine_linear_combination():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 7))
    combo = fem.combine([(2.0, system.mass), (-0.5, system.stiffness)])
    expect = 2.0 * system.mass.to_dense() - 0.5 * system.stiffness.to_dense()
    assert np.max(np.abs(combo.to_dense() - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_out_of_band_entry_rejected():
    m = fem.BandedSymmetricMatrix(8, 3)
    with pytest.raises(IndexError):
        m.add(0, 4, 1.0)


def _element_matrices_per_point(problem, x_left, h):
    """The per-element formula batched assembly replaced: ``hermite_shapes``
    at each Gauss point and one single-element einsum per matrix."""
    deg = max(problem.rho.degree, problem.mu.degree, problem.rigidity.degree)
    xi, w = fem.gauss_rule(max(4, math.ceil((7 + deg) / 2)))
    shapes = np.stack([fem.hermite_shapes(x, h) for x in xi])  # (q, 4, 3)
    vals, curv = shapes[:, :, 0], shapes[:, :, 2]
    xq = x_left + h * xi
    return (np.einsum("q,qa,qb->ab", h * w * problem.rho(xq), vals, vals),
            np.einsum("q,qa,qb->ab", h * w * problem.mu(xq), vals, vals),
            np.einsum("q,qa,qb->ab", h * w * problem.rigidity(xq), curv, curv))


def _polynomial_table_problem():
    # quadratic rho and cubic r with a table mu: a 6-point rule
    return dataclasses.replace(
        pb.preset("mast_constant"),
        rho=pb.CoefficientField.polynomial((1.0, 0.3, -0.2)),
        mu=pb.CoefficientField.table((0.0, 0.3, 0.7, 1.0), (0.5, 1.0, 0.2, 0.4)),
        rigidity=pb.CoefficientField.polynomial((2.0, -0.5, 0.1, 0.05)))


@pytest.mark.parametrize("name", pb.PRESET_NAMES + ("polynomial_table",))
def test_system_matrices_equal_the_dense_element_scatter(name):
    # oracle: each element's matrices added into dense globals in element
    # order at DOFs 2e-2+a (element 0's clamped left node dropped), then the
    # end constants; the banded upper triangle holds the same sums, so the
    # match is exact, sign bits included.  element_matrices, the one-element
    # case of the batch, must give each element's matrices bitwise too
    prob = _polynomial_table_problem() if name == "polynomial_table" else pb.preset(name)
    for nodes in (3, 4, 7, 41):
        mesh = fem.Mesh(prob.length, nodes)
        system = fem.assemble(prob, mesh)
        n = system.n
        dense = np.zeros((3, n, n))
        for e in range(mesh.element_count):
            local = _element_matrices_per_point(prob, mesh.nodes[e], mesh.h)
            for got, want in zip(element_matrices(prob, mesh.nodes[e], mesh.h), local):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            for d, m_e in zip(dense, local):
                for a in range(4):
                    for b in range(4):
                        if 2 * e - 2 + min(a, b) >= 0:
                            d[2 * e - 2 + a, 2 * e - 2 + b] += m_e[a, b]
        bc = prob.boundary
        dense[1, n - 2, n - 2] += bc.k_v
        dense[1, n - 1, n - 1] += bc.k_a
        dense[2, n - 2, n - 2] += bc.k_d
        dense[2, n - 1, n - 1] += bc.k_r
        for d, mat in zip(dense, (system.mass, system.damping, system.stiffness)):
            # the bands hold the dense upper diagonals and zeros elsewhere
            want = np.zeros((4, n))
            for k in range(4):
                want[3 - k, k:] = np.diagonal(d, k)
            assert np.array_equal(mat.bands, want), (nodes, name)
            assert np.array_equal(np.signbit(mat.bands), np.signbit(want)), (nodes, name)
            assert np.any(want)


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------

def test_zero_dofs_evaluate_to_zero():
    system = fem.assemble(pb.preset("test_NE1"), fem.Mesh(1.0, 7))
    kernel = fem.FieldKernel(system.mesh.h, [0.0, 0.37, 1.0])
    rows = np.zeros((2, system.n))
    assert not np.any(kernel.values(rows)) and not np.any(kernel.curvatures(rows))
    assert not np.any(fem.nodal(rows, 0)) and not np.any(fem.nodal(rows, 1))


@pytest.mark.parametrize("nodes", [3, 9, 33])
def test_cubic_interpolation_is_exact(nodes):
    # 2x^2 - 0.7x^3 satisfies the clamp and lies in the Hermite space
    prob = _unit_problem()
    system = fem.assemble(prob, fem.Mesh(1.0, nodes))
    mesh = system.mesh
    poly = pb.SpatialProfile.polynomial((0.0, 0.0, 2.0, -0.7))
    dofs = fem.interpolate_profile(poly, mesh)[None]
    xi = np.concatenate([[0.0, 1.0], np.random.default_rng(nodes).random(21)])
    x = mesh.nodes[:-1, None] + mesh.h * xi   # (E, q): every element
    kernel = fem.FieldKernel(mesh.h, xi)
    assert np.max(np.abs(kernel.values(dofs)[0] - poly(x))) <= 1e-10
    assert np.max(np.abs(kernel.curvatures(dofs)[0] - poly.d2(x))) <= 1e-10
    assert np.max(np.abs(fem.nodal(dofs, 0)[0] - poly(mesh.nodes))) <= 1e-10
    assert np.max(np.abs(fem.nodal(dofs, 1)[0] - poly.d1(mesh.nodes))) <= 1e-10


def _interpolate_profile_per_node(profile, mesh):
    """The per-node loop interpolate_profile replaced: the bitwise oracle."""
    out = np.zeros(2 * (mesh.node_count - 1))
    for node in range(1, mesh.node_count):
        x = mesh.nodes[node]
        out[2 * (node - 1)] = float(profile(x))
        out[2 * (node - 1) + 1] = float(profile.d1(x))
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
    got = fem.interpolate_profile(profile, mesh)
    want = _interpolate_profile_per_node(profile, mesh)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_ne1_initial_interpolant_end_values():
    prob = pb.preset("test_NE1")
    system = fem.assemble(prob, fem.Mesh(1.0, 9))
    dofs = fem.interpolate_profile(prob.initial.u0, system.mesh)[None]
    u = fem.FieldKernel(system.mesh.h, [1.0]).values(dofs)[0, -1, 0]
    ux = fem.nodal(dofs, 1)[0, -1]
    assert u == pytest.approx(1.0, abs=1e-12)
    assert ux == pytest.approx(2.0, abs=1e-12)


def test_mesh_invariants():
    mesh = fem.Mesh(2.0, 9)
    assert mesh.h == pytest.approx(0.25)
    spacing = np.diff(mesh.nodes)
    assert np.max(np.abs(spacing - mesh.h)) <= 1e-12 * mesh.h
    with pytest.raises(ValueError):
        fem.Mesh(1.0, 2)
