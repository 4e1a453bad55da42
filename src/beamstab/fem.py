"""Hermite-cubic finite elements for the clamped beam.

Space is discretized on a uniform mesh with two degrees of freedom per node
(displacement and physical slope; slope shape functions are scaled by the
element length so both DOF kinds stay well conditioned).  The clamped node at
``x = 0`` is eliminated, leaving ``n = 2 (M - 1)`` unknowns.  Assembly
produces symmetric banded mass/damping/stiffness matrices

    mass      = integral rho psi_i psi_j
    damping   = integral mu  psi_i psi_j   + k_v and k_a on the end DOFs
    stiffness = integral r psi_i'' psi_j'' + k_d and k_r on the end DOFs

plus the time-dependent end-load vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from .problem import BeamProblem, validate

__all__ = [
    "Mesh",
    "DofMap",
    "BandedSymmetricMatrix",
    "BandedCholesky",
    "combine",
    "SemiDiscreteSystem",
    "hermite_shapes",
    "gauss_rule",
    "element_matrices",
    "assemble",
    "evaluate_solution",
    "interpolate_profile",
]

HALF_BANDWIDTH = 3  # two coupled nodes x two DOFs -> |i - j| <= 3

# Levels per block when fields are streamed over a history: diagnostics need
# the history plus a few blocks whatever the run length (one (levels, E, q)
# block is 0.6 MiB at M = 321); 64 was the fastest of 32..512 at M = 321.
CHUNK_LEVELS = 64


# ---------------------------------------------------------------------------
# mesh and DOF bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Uniform mesh 0 = x_1 < ... < x_M = length with M >= 3 nodes."""

    length: float
    node_count: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_count < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.length, self.node_count))

    @property
    def h(self) -> float:
        """Element length."""
        return self.length / (self.node_count - 1)

    @property
    def element_count(self) -> int:
        return self.node_count - 1


@dataclass(frozen=True)
class DofMap:
    """Node -> global DOF numbering with the clamped node eliminated.

    Node 0 carries no unknowns; node i >= 1 owns displacement DOF 2(i-1)
    and slope DOF 2(i-1)+1.  Eliminated DOFs are reported as -1 and never
    appear in assembled matrices.
    """

    node_count: int

    @property
    def n_free(self) -> int:
        return 2 * (self.node_count - 1)

    def disp_dof(self, node: int) -> int:
        return -1 if node == 0 else 2 * (node - 1)

    def rot_dof(self, node: int) -> int:
        return -1 if node == 0 else 2 * (node - 1) + 1

    def element_dofs(self, element: int) -> np.ndarray:
        """Global indices of the 4 local DOFs (value/slope at both nodes)."""
        left, right = element, element + 1
        return np.array(
            [self.disp_dof(left), self.rot_dof(left),
             self.disp_dof(right), self.rot_dof(right)],
            dtype=int,
        )


# ---------------------------------------------------------------------------
# banded symmetric matrices
# ---------------------------------------------------------------------------

class BandedSymmetricMatrix:
    """Symmetric matrix stored as upper bands (scipy banded convention).

    ``bands[b + i - j, j] == A[i, j]`` for ``j - b <= i <= j`` with
    half-bandwidth ``b``; symmetry holds by construction since only the
    upper triangle is stored.  The bands are Fortran-ordered, so BLAS and
    LAPACK read them without a copy.
    """

    def __init__(self, n: int, halfband: int = HALF_BANDWIDTH):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self.halfband = min(halfband, n - 1)
        self.bands = np.zeros((self.halfband + 1, n), order="F")

    def add(self, i: int, j: int, value: float) -> None:
        if i > j:
            i, j = j, i
        if j - i > self.halfband:
            raise IndexError(f"entry ({i}, {j}) outside half-bandwidth {self.halfband}")
        self.bands[self.halfband + i - j, j] += value

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        if j - i > self.halfband:
            return 0.0
        return self.bands[self.halfband + i - j, j]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for d in range(self.halfband + 1):
            diag = self.bands[self.halfband - d, d:]
            idx = np.arange(self.n - d)
            a[idx, idx + d] = diag
            a[idx + d, idx] = diag
        return a

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A x``, written into ``out`` (a contiguous float64 vector) if given."""
        if out is None:
            return _blas.dsbmv(self.halfband, 1.0, self.bands, x, lower=0)
        if _blas.dsbmv(self.halfband, 1.0, self.bands, x, y=out, overwrite_y=1,
                       lower=0) is not out:
            raise ValueError("out must be a contiguous float64 vector")
        return out

    def factor(self) -> "BandedCholesky":
        return BandedCholesky(self)

    def copy(self) -> "BandedSymmetricMatrix":
        out = BandedSymmetricMatrix(self.n, self.halfband)
        out.bands[:] = self.bands
        return out


class BandedCholesky:
    """Cholesky factorization of a banded SPD matrix, reusable across solves.

    The factor is checked once, here: positive definite and finite.  Solves
    call LAPACK ``dpbtrs`` directly and check nothing, so a non-finite
    right-hand side gives a non-finite solution, not an error.
    """

    def __init__(self, matrix: BandedSymmetricMatrix):
        self._factor, info = _lapack.dpbtrf(matrix.bands, lower=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                "banded Cholesky failed (matrix not positive definite): "
                f"{info}-th leading minor not positive definite")
        if info < 0 or not np.all(np.isfinite(self._factor)):
            raise np.linalg.LinAlgError("banded Cholesky failed (matrix not finite)")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _lapack.dpbtrs(self._factor, rhs, lower=0)[0]

    def solve_in_place(self, rhs: np.ndarray) -> None:
        """Overwrite ``rhs``, a contiguous float64 vector, with the solution."""
        if _lapack.dpbtrs(self._factor, rhs, lower=0, overwrite_b=1)[0] is not rhs:
            raise ValueError("rhs must be a contiguous float64 vector")


def combine(terms) -> BandedSymmetricMatrix:
    """Linear combination ``sum(c * A)`` of banded symmetric matrices."""
    terms = list(terms)
    n = terms[0][1].n
    hb = max(mat.halfband for _, mat in terms)
    out = BandedSymmetricMatrix(n, hb)
    for c, mat in terms:
        out.bands[hb - mat.halfband:, :] += c * mat.bands
    return out


# ---------------------------------------------------------------------------
# shape functions and quadrature
# ---------------------------------------------------------------------------

def hermite_shapes(xi: float, h: float) -> np.ndarray:
    """Cubic Hermite shape functions on one element at local coordinate xi.

    Returns a (4, 3) array: rows are (left value, left slope, right value,
    right slope) DOFs, columns are (value, d/dx, d2/dx2).  Slope rows are
    scaled by the element length h so the DOFs are physical slopes.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    # scalar form of (scale * v, scale * deriv * d1, scale * deriv**2 * d2)
    # with scale = (1, h, 1, h) and deriv = 1/h: the products keep that order,
    # since h * (1/h) need not round to 1
    xi2, xi3 = xi**2, xi**3
    g = 1.0 / h
    g2 = g * g
    hg, hg2 = h * g, h * g2
    return np.array([
        [1.0 - 3.0 * xi2 + 2.0 * xi3, g * (-6.0 * xi + 6.0 * xi2), g2 * (-6.0 + 12.0 * xi)],
        [h * (xi - 2.0 * xi2 + xi3), hg * (1.0 - 4.0 * xi + 3.0 * xi2), hg2 * (-4.0 + 6.0 * xi)],
        [3.0 * xi2 - 2.0 * xi3, g * (6.0 * xi - 6.0 * xi2), g2 * (6.0 - 12.0 * xi)],
        [h * (-xi2 + xi3), hg * (-2.0 * xi + 3.0 * xi2), hg2 * (-2.0 + 6.0 * xi)],
    ])


@functools.lru_cache(maxsize=32)
def gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1] (cached, read-only)."""
    x, w = np.polynomial.legendre.leggauss(points)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _auto_points(requested: int, problem: BeamProblem) -> int:
    # mass-type integrand: cubic x cubic x coefficient -> degree 6 + deg
    deg = max(problem.rho.degree, problem.mu.degree, problem.rigidity.degree)
    return max(requested, math.ceil((7 + deg) / 2))


def integrate_data(problem: BeamProblem, f) -> float:
    """``int_0^L f(x) dx`` for analytic data, by 20-point Gauss panels that
    honor every table knot of the coefficients and initial profiles."""
    pts = set(np.linspace(0.0, problem.length, 9))
    for prof in (problem.rho, problem.mu, problem.rigidity,
                 problem.initial.u0, problem.initial.u1):
        if prof.kind == "table":
            pts.update(x for x in prof.data[0] if 0.0 < x < problem.length)
    panels = np.array(sorted(pts))
    xi, w = gauss_rule(20)
    total = 0.0
    for a, b in zip(panels[:-1], panels[1:]):
        total += (b - a) * float(w @ np.asarray(f(a + (b - a) * xi), dtype=float))
    return total


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Assembled matrices and load of the space-discretized beam.

    ``load(t)`` is the load vector at one time.  ``end_load(times)`` holds
    its only entries that can be nonzero, those of the end displacement and
    end slope DOFs, for an array of times: shape ``times.shape + (2,)``.
    """

    mass: BandedSymmetricMatrix
    damping: BandedSymmetricMatrix
    stiffness: BandedSymmetricMatrix
    load: callable
    dof_map: DofMap
    mesh: Mesh
    problem: BeamProblem
    end_load: callable = None

    @property
    def n(self) -> int:
        return self.mass.n

    @functools.cached_property
    def quadrature(self) -> "Quadrature":
        """The Gauss-point field kernel of this system, built on first use."""
        return Quadrature(self)


def element_matrices(problem: BeamProblem, x_left: float, h: float,
                     quad_points: int = 4):
    """Element mass/damping/stiffness for one element [x_left, x_left + h].

    Local DOF order is (left value, left slope, right value, right slope);
    no boundary or clamping terms are applied here.
    """
    q = _auto_points(quad_points, problem)
    xi, w = gauss_rule(q)
    shapes = np.stack([hermite_shapes(x, h) for x in xi])  # (q, 4, 3)
    vals = shapes[:, :, 0]
    curv = shapes[:, :, 2]
    xq = x_left + h * xi
    m_e = np.einsum("q,qa,qb->ab", h * w * problem.rho(xq), vals, vals)
    c_e = np.einsum("q,qa,qb->ab", h * w * problem.mu(xq), vals, vals)
    k_e = np.einsum("q,qa,qb->ab", h * w * problem.rigidity(xq), curv, curv)
    return m_e, c_e, k_e


def assemble(problem: BeamProblem, mesh: Mesh, quad_points: int = 4) -> SemiDiscreteSystem:
    """Assemble the semi-discrete system for a validated problem.

    ``quad_points`` is the Gauss count per element; at least 4 points are
    required (cubic products are degree six) and the count is raised
    automatically for higher-degree polynomial coefficients so element
    integrals stay exact.
    """
    if quad_points < 4:
        raise ValueError("quad_points must be >= 4 (cubic-cubic products under-integrate)")
    report = validate(problem)
    if not report.ok:
        raise ValueError(f"cannot assemble an invalid problem:\n{report}")
    if abs(mesh.length - problem.length) > 1e-12 * problem.length:
        raise ValueError("mesh does not span the problem domain")

    dof_map = DofMap(mesh.node_count)
    n = dof_map.n_free
    h = mesh.h

    mass = BandedSymmetricMatrix(n)
    damping = BandedSymmetricMatrix(n)
    stiffness = BandedSymmetricMatrix(n)

    for e in range(mesh.element_count):
        m_e, c_e, k_e = element_matrices(problem, mesh.nodes[e], h, quad_points)
        dofs = dof_map.element_dofs(e)
        for a in range(4):
            ga = dofs[a]
            if ga < 0:
                continue
            for b in range(a, 4):
                gb = dofs[b]
                if gb < 0:
                    continue
                mass.add(ga, gb, m_e[a, b])
                damping.add(ga, gb, c_e[a, b])
                stiffness.add(ga, gb, k_e[a, b])

    bc = problem.boundary
    end_disp, end_rot = n - 2, n - 1
    stiffness.add(end_disp, end_disp, bc.k_d)
    stiffness.add(end_rot, end_rot, bc.k_r)
    damping.add(end_disp, end_disp, bc.k_v)
    damping.add(end_rot, end_rot, bc.k_a)

    g_m, g_q = problem.forcing.g_M, problem.forcing.g_Q

    def end_load(times) -> np.ndarray:
        # the extra end moment/shear enter the weak statement negated
        return np.stack([-g_q(times), -g_m(times)], axis=-1)

    def load(t: float) -> np.ndarray:
        f = np.zeros(n)
        f[end_disp:] = end_load(t)
        return f

    return SemiDiscreteSystem(mass, damping, stiffness, load, dof_map, mesh, problem,
                              end_load)


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------

def element_local(rows: np.ndarray) -> np.ndarray:
    """(T, n) DOF rows -> (T, E, 4) element-local values (a view).  Two zeros
    padded in front stand for the clamped node, so element e reads [2e:2e+4]."""
    padded = np.zeros((rows.shape[0], rows.shape[1] + 2))
    padded[:, 2:] = rows
    return sliding_window_view(padded, 4, axis=1)[:, ::2]


class FieldKernel:
    """Values and curvatures of DOF rows at local points ``xi`` of every element."""

    def __init__(self, mesh: Mesh, xi):
        self.xi = np.asarray(xi, dtype=float)
        shapes = np.stack([hermite_shapes(x, mesh.h) for x in self.xi])  # (q, 4, 3)
        self._value, self._curvature = shapes[:, :, 0].T, shapes[:, :, 2].T

    def values(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """u at the points: (T, n) rows -> (T, E, q), into ``out`` if given."""
        return np.matmul(element_local(rows), self._value, out=out)

    def curvatures(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """u_xx at the points (element-interior limits): (T, n) rows -> (T, E, q),
        into ``out`` if given."""
        return np.matmul(element_local(rows), self._curvature, out=out)


class Quadrature(FieldKernel):
    """Field kernel at the element Gauss points.  The flattened (E*q,) weights
    ``w_plain``, ``w_rho``, ``w_mu``, ``w_r`` integrate against 1, rho, mu, r,
    exactly for products of two fields with polynomial coefficients."""

    def __init__(self, system: SemiDiscreteSystem):
        mesh, problem = system.mesh, system.problem
        xi, w = gauss_rule(_auto_points(4, problem))
        super().__init__(mesh, xi)
        xq = mesh.nodes[:-1, None] + mesh.h * xi[None, :]  # (E, q)
        wq = mesh.h * w[None, :]
        self.w_plain = np.broadcast_to(wq, xq.shape).ravel()
        self.w_rho = (wq * problem.rho(xq)).ravel()
        self.w_mu = (wq * problem.mu(xq)).ravel()
        self.w_r = (wq * problem.rigidity(xq)).ravel()

    @staticmethod
    def integral(weights: np.ndarray, f: np.ndarray, g: np.ndarray,
                 work: np.ndarray | None = None) -> np.ndarray:
        """Per-level ``int c f g dx`` of two (T, E, q) fields; ``work`` is an
        optional contiguous (T, E, q) array that receives the product."""
        return np.multiply(f, g, out=work).reshape(f.shape[0], -1) @ weights


class InteriorBlocks:
    """Regroups a history that arrives as consecutive level blocks of any
    sizes into the interior levels 1..N-2, in blocks of CHUNK_LEVELS starting
    at level 1.

    ``push(block)`` takes the next levels and yields every interior block
    they complete; ``flush()`` yields the last, shorter one once every level
    is in.  Each yield is ``(out, u, u_t)``: the block's slice of arrays over
    interior levels, its DOF rows and its centered velocity rows
    ``(U^{j+1} - U^{j-1}) / (2 dt)``.  The rows pass through one buffer of
    CHUNK_LEVELS + 2 levels, so ``u`` is valid only until the next yield.
    The partition does not depend on how the levels arrive, so every
    per-block reduction is bitwise the same for a stored and a streamed
    history.
    """

    def __init__(self, n: int, dt: float):
        self._dt = dt
        self._rows = np.empty((CHUNK_LEVELS + 2, n))  # levels lo - 1 .. lo + CHUNK_LEVELS
        self._filled = 0
        self._lo = 1

    def push(self, block: np.ndarray):
        while len(block):
            take = min(CHUNK_LEVELS + 2 - self._filled, len(block))
            self._rows[self._filled:self._filled + take] = block[:take]
            self._filled += take
            block = block[take:]
            if self._filled == CHUNK_LEVELS + 2:
                yield self._block()
                self._rows[:2] = self._rows[-2:]
                self._filled = 2
                self._lo += CHUNK_LEVELS

    def flush(self):
        if self._filled > 2:
            yield self._block()
            self._filled = 2

    def _block(self):
        rows = self._rows[:self._filled]
        return (slice(self._lo - 1, self._lo + self._filled - 3), rows[1:-1],
                (rows[2:] - rows[:-2]) / (2.0 * self._dt))


def interior_blocks(history: np.ndarray, dt: float):
    """``InteriorBlocks`` over a stored (N, n) history."""
    chunks = InteriorBlocks(history.shape[1], dt)
    yield from chunks.push(history)
    yield from chunks.flush()


def evaluate_solution(system: SemiDiscreteSystem, dofs: np.ndarray, x: float):
    """Evaluate (u, u_x, u_xx) of the Hermite interpolant at one point.

    u and u_x are continuous; u_xx is piecewise linear and interior nodes
    return the left-element limit.
    """
    dofs = np.ascontiguousarray(dofs, dtype=float)
    if dofs.shape != (system.n,):
        raise ValueError(f"dofs must have length {system.n}")
    mesh = system.mesh
    x, length, h = float(x), mesh.length, mesh.h
    if not 0.0 <= x <= length * (1.0 + 1e-12):
        raise ValueError(f"x = {x} outside [0, {length}]")
    last = mesh.element_count - 1
    node = round(x / h)
    if node >= 1 and abs(x - node * h) <= 1e-12 * length:
        e = min(node - 1, last)  # an interior node resolves to its left element
    else:
        e = min(int(x / h), last)
    xi = min(max((x - mesh.nodes.item(e)) / h, 0.0), 1.0)
    s = hermite_shapes(xi, h)
    # element e's local DOFs; element 0's left node is the clamped one
    local = dofs[2 * e - 2:2 * e + 2] if e else np.array([0.0, 0.0, dofs[0], dofs[1]])
    return float(local @ s[:, 0]), float(local @ s[:, 1]), float(local @ s[:, 2])


def interpolate_profile(profile, mesh: Mesh, dof_map: DofMap) -> np.ndarray:
    """Nodal Hermite interpolant (values and slopes) of a spatial profile."""
    x = mesh.nodes[1:]  # node i >= 1 owns DOFs 2(i-1) (value) and 2(i-1)+1 (slope)
    out = np.empty(dof_map.n_free)
    out[0::2] = profile(x)
    out[1::2] = profile.d1(x)
    return out

