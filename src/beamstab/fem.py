"""Hermite-cubic finite elements for the clamped beam.

Space is discretized on a uniform mesh with two degrees of freedom per node
(displacement and physical slope; slope shape functions are scaled by the
element length so both DOF kinds stay well conditioned).

DOF layout: the clamped node 0 at ``x = 0`` is eliminated, and node i >= 1
owns the displacement DOF 2(i-1) and the slope DOF 2(i-1)+1, leaving
``n = 2 (M - 1)`` unknowns.  Element e's local DOFs are therefore the global
DOFs 2e-2 .. 2e+1, of which element 0 keeps only its right-node pair.
Fields are read from DOF rows in two ways: ``FieldKernel`` gives values and
curvatures at local points ``xi`` of every element, and ``nodal`` gives the
nodal displacements or slopes, the clamped node's zero first.

Assembly and the field kernel of the diagnostics read one Gauss table: the
shape values and curvatures at the element Gauss points and the three
weight arrays ``h w rho``, ``h w mu``, ``h w r`` (``Quadrature``).
Assembly produces symmetric banded mass/damping/stiffness matrices

    mass      = integral rho psi_i psi_j
    damping   = integral mu  psi_i psi_j   + k_v and k_a on the end DOFs
    stiffness = integral r psi_i'' psi_j'' + k_d and k_r on the end DOFs

plus the time-dependent end-load vector.

A run's history is cut one way only: ``windows`` yields blocks of
CHUNK_LEVELS interior levels from level 1, each with both neighbours, for
the stepper and for a stored history alike.  Per-block matrix products
round the same way for the same rows only, so this is what keeps streamed
and stored results bitwise equal.

Small and large systems step with different kernels, by one rule keyed on
the system size n: up to DENSE_MAX_N DOFs, ``factor`` and ``block_row``
are numpy's dense products (a solve is one product with an inverse
built from a banded Cholesky factor in numpy); above it they are LAPACK
``dpbtrf``/``dpbtrs`` and a product with a CSR array that scipy builds
from the bands, storing only nonzero entries.  Both kinds of factor check
the same things and raise the same errors.  scipy is imported only where a
banded kernel is first used, so importing this module loads numpy only,
a process that never factors or steps (the reducing parent of a forked
run) never loads scipy, nor does any process of a run with n <= DENSE_MAX_N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .problem import BeamProblem, validate

__all__ = [
    "Mesh",
    "BandedSymmetricMatrix",
    "BandedCholesky",
    "DenseCholesky",
    "combine",
    "SemiDiscreteSystem",
    "hermite_shapes",
    "gauss_rule",
    "assemble",
    "FieldKernel",
    "nodal",
    "windows",
    "velocities",
    "interpolate_profile",
]

HALF_BANDWIDTH = 3  # two coupled nodes x two DOFs -> |i - j| <= 3

# Levels per block when fields are streamed over a history: diagnostics need
# the history plus a few blocks whatever the run length (one (levels, E, q)
# block is 0.6 MiB at M = 321); 64 was the fastest of 32..512 at M = 321.
CHUNK_LEVELS = 64

# Systems of at most this many DOFs (M <= 81 nodes) use numpy's dense
# kernels, larger ones the banded LAPACK/CSR kernels.  A BDF2 step
# (cantilever_dampers, one BLAS thread, 2-core x86-64) took 6.4 / 8.5 /
# 12.8 / 19.3 / 28.5 / 54.8 us dense against 9.0 / 10.5 / 12.2 / 14.2 /
# 14.9 / 18.1 us banded at n = 40 / 80 / 120 / 160 / 200 / 240 (re-measured
# once the CSR arrays stored no zeros: 7.7 / 9.4 / 9.7 / 11.0 / 12.3 / 14.0
# us banded, 8.2 / 8.7 / 10.0 / 11.4 / 13.0 / 13.8 with them).  So an
# M = 81 run at dt = h/40 (6401 levels) costs about 0.03 s more dense,
# while the banded kernels cost their process 0.22-0.30 s and 27 MiB of
# scipy import; at n = 200 the two are close, and at n = 240 dense loses.
DENSE_MAX_N = 160


# ---------------------------------------------------------------------------
# mesh
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


# ---------------------------------------------------------------------------
# banded symmetric matrices
# ---------------------------------------------------------------------------

class BandedSymmetricMatrix:
    """Symmetric matrix stored as upper bands (scipy banded convention).

    ``bands[b + i - j, j] == A[i, j]`` for ``j - b <= i <= j`` with
    half-bandwidth ``b``; symmetry holds by construction since only the
    upper triangle is stored.  The bands are Fortran-ordered, so LAPACK
    reads them without a copy.
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

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for d in range(self.halfband + 1):
            diag = self.bands[self.halfband - d, d:]
            idx = np.arange(self.n - d)
            a[idx, idx + d] = diag
            a[idx + d, idx] = diag
        return a

    def factor(self) -> "DenseCholesky | BandedCholesky":
        """The checked factor: dense up to DENSE_MAX_N DOFs, banded above."""
        return (DenseCholesky if self.n <= DENSE_MAX_N else BandedCholesky)(self)


def _not_positive_definite(order: int) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        "banded Cholesky failed (matrix not positive definite): "
        f"{order}-th leading minor not positive definite")


_NOT_FINITE = "banded Cholesky failed (matrix not finite)"


class BandedCholesky:
    """Cholesky factorization of a banded SPD matrix, reusable across solves.

    The factor is checked once, here: positive definite and finite.  Solves
    call LAPACK ``dpbtrs``, bound here, directly and check nothing, so a
    non-finite right-hand side gives a non-finite solution, not an error.
    """

    def __init__(self, matrix: BandedSymmetricMatrix):
        from scipy.linalg import lapack

        self._dpbtrs = lapack.dpbtrs
        self._factor, info = lapack.dpbtrf(matrix.bands, lower=0)
        if info > 0:
            raise _not_positive_definite(info)
        if info < 0 or not np.all(np.isfinite(self._factor)):
            raise np.linalg.LinAlgError(_NOT_FINITE)

    def solve_in_place(self, rhs: np.ndarray) -> None:
        """Overwrite ``rhs``, a contiguous float64 vector, with the solution."""
        if self._dpbtrs(self._factor, rhs, lower=0, overwrite_b=1)[0] is not rhs:
            raise ValueError("rhs must be a contiguous float64 vector")


class DenseCholesky:
    """A small SPD matrix, checked like ``BandedCholesky`` and solved with
    its precomputed inverse, one matrix-vector product a solve.

    One pass factors ``L L^T`` column by column over the band: its first
    pivot that is not positive is the order of the first leading minor that
    is not positive definite, as LAPACK's ``info`` gives it.  The inverse is
    forward and back substitution on the identity, a row at a time from at
    most ``halfband`` others: no product is large enough for BLAS to
    thread, so the bytes do not depend on the thread count.
    """

    def __init__(self, matrix: BandedSymmetricMatrix):
        a, b = matrix.to_dense(), matrix.halfband
        if not np.all(np.isfinite(a)):
            raise np.linalg.LinAlgError(_NOT_FINITE)
        low, x = np.zeros_like(a), np.eye(len(a))
        for j in range(len(a)):
            lo, below = max(0, j - b), slice(j + 1, j + b + 1)
            row = low[j, lo:j]
            pivot = a[j, j] - row @ row
            if not pivot > 0.0:
                raise _not_positive_definite(j + 1)
            low[j, j] = math.sqrt(pivot)
            low[below, j] = (a[below, j] - low[below, lo:j] @ row) / low[j, j]
            x[j] = (x[j] - row @ x[lo:j]) / low[j, j]         # L Y = I, row j
        for j in reversed(range(len(a))):                   # L^T X = Y, row j
            x[j] = (x[j] - low[j + 1:j + b + 1, j] @ x[j + 1:j + b + 1]) / low[j, j]
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError(_NOT_FINITE)
        self._inverse = x

    def solve_in_place(self, rhs: np.ndarray) -> None:
        """Overwrite ``rhs``, a contiguous float64 vector, with the solution."""
        if rhs.ndim != 1 or rhs.dtype != np.float64 or not rhs.flags.c_contiguous:
            raise ValueError("rhs must be a contiguous float64 vector")
        rhs[:] = self._inverse @ rhs


def combine(terms) -> BandedSymmetricMatrix:
    """Linear combination ``sum(c * A)`` of banded symmetric matrices."""
    terms = list(terms)
    n = terms[0][1].n
    hb = max(mat.halfband for _, mat in terms)
    out = BandedSymmetricMatrix(n, hb)
    for c, mat in terms:
        out.bands[hb - mat.halfband:, :] += c * mat.bands
    return out


def block_row(matrices) -> "np.ndarray | scipy.sparse.csr_array":
    """The n x (k n) block row ``[A_1 | ... | A_k]`` of k banded symmetric
    n x n matrices: a dense array up to DENSE_MAX_N DOFs, a CSR array built
    by scipy from the upper bands above.

    The upper bands are the DIA data of the upper triangle (offsets b .. 0),
    and the strict upper triangle transposed gives the lower one.  The CSR
    array stores only the nonzero entries, each row in ascending column
    order, with 32-bit indices while they fit, so its pattern follows the
    values: no block stores the zero that couples the slope of node k with
    the displacement of node k + 2, which no element joins.
    """
    n = matrices[0].n
    if n <= DENSE_MAX_N:
        return np.hstack([mat.to_dense() for mat in matrices])
    from scipy import sparse

    blocks = []
    for mat in matrices:
        upper = sparse.dia_array((mat.bands, np.arange(mat.halfband, -1, -1)), shape=(n, n))
        blocks.append(upper + sparse.triu(upper, 1).T)
    return sparse.hstack(blocks, format="csr")


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


def _auto_points(problem: BeamProblem) -> int:
    # mass-type integrand: cubic x cubic x coefficient -> degree 6 + deg
    deg = max(problem.rho.degree, problem.mu.degree, problem.rigidity.degree)
    return math.ceil((7 + deg) / 2)


def _gauss_weights(problem: BeamProblem, x_left: np.ndarray, h: float):
    """Gauss points ``xi`` of the problem's element rule and the (3, E, q)
    weights ``h w rho``, ``h w mu``, ``h w r`` at the points
    ``x_left[:, None] + h xi`` of the elements [x_left, x_left + h].

    The rule integrates products of two fields against the polynomial
    coefficients exactly (cubic x cubic x coefficient).
    """
    xi, w = gauss_rule(_auto_points(problem))
    xq = x_left[:, None] + h * xi
    wq = h * w
    return xi, np.stack([wq * problem.rho(xq), wq * problem.mu(xq),
                         wq * problem.rigidity(xq)])


def integrate_data(problem: BeamProblem, f) -> float:
    """``int_0^L f(x) dx`` for analytic data, by 20-point Gauss panels that
    honor every table knot of the coefficients and initial profiles."""
    pts = set(np.linspace(0.0, problem.length, 9))
    for prof in (problem.rho, problem.mu, problem.rigidity,
                 problem.initial.u0, problem.initial.u1):
        pts.update(x for x in prof.knots if 0.0 < x < problem.length)
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

    ``end_load(times)`` holds the only entries of the load vector that can
    be nonzero, those of the end displacement and end slope DOFs (the last
    two), for an array of times: shape ``times.shape + (2,)``.
    ``quadrature`` is the Gauss table the matrices were assembled from; the
    diagnostics integrate fields with it.
    """

    mass: BandedSymmetricMatrix
    damping: BandedSymmetricMatrix
    stiffness: BandedSymmetricMatrix
    end_load: callable
    mesh: Mesh
    problem: BeamProblem
    quadrature: "Quadrature" = None

    @property
    def n(self) -> int:
        return self.mass.n


def _element_batch(kernel: "FieldKernel", weights: np.ndarray):
    """(E, 4, 4) element mass, damping and stiffness matrices from a kernel at
    the Gauss points and the (3, E, q) weights of ``_gauss_weights``."""
    vals, curv = kernel._value.T, kernel._curvature.T  # (q, 4)
    w_rho, w_mu, w_r = weights
    return (np.einsum("eq,qa,qb->eab", w_rho, vals, vals),
            np.einsum("eq,qa,qb->eab", w_mu, vals, vals),
            np.einsum("eq,qa,qb->eab", w_r, curv, curv))


def assemble(problem: BeamProblem, mesh: Mesh) -> SemiDiscreteSystem:
    """Assemble the semi-discrete system for a validated problem.

    All element matrices come from one ``Quadrature`` of the mesh, whose
    Gauss rule is exact for the polynomial coefficients.  Their upper
    triangles are scattered into the bands pair by pair of local DOFs, over
    every element at once; the end springs and dampers are added last.
    """
    report = validate(problem)
    if not report.ok:
        raise ValueError(f"cannot assemble an invalid problem:\n{report}")
    if abs(mesh.length - problem.length) > 1e-12 * problem.length:
        raise ValueError("mesh does not span the problem domain")

    quadrature = Quadrature(mesh, problem)
    local = _element_batch(quadrature, quadrature._weights)
    n = 2 * mesh.element_count
    matrices = [BandedSymmetricMatrix(n) for _ in local]
    for a in range(4):
        for b in range(a, 4):
            # element e's local DOF b is global 2e-2+b; element 0 keeps only
            # its right-node block, the left node being clamped
            first = 0 if a >= 2 else 1
            cols = slice(2 * first - 2 + b, n - 2 + b, 2)
            for mat, m_e in zip(matrices, local):
                mat.bands[HALF_BANDWIDTH + a - b, cols] += m_e[first:, a, b]
    mass, damping, stiffness = matrices

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

    return SemiDiscreteSystem(mass, damping, stiffness, end_load, mesh, problem, quadrature)


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------

def element_local(rows: np.ndarray, padded: np.ndarray | None = None) -> np.ndarray:
    """(T, n) DOF rows -> (T, E, 4) element-local values (a view).  Two zeros
    padded in front stand for the clamped node, so element e reads [2e:2e+4].
    ``padded``, if given, is a (T, n + 2) array whose first two columns are
    zero; the rows are copied into the rest of it."""
    if padded is None:
        padded = np.zeros((rows.shape[0], rows.shape[1] + 2))
    padded[:, 2:] = rows
    return sliding_window_view(padded, 4, axis=1)[:, ::2]


def nodal(rows: np.ndarray, k: int) -> np.ndarray:
    """(T, n) DOF rows -> (T, M) nodal displacements (k = 0) or slopes
    (k = 1), the clamped node's zero first."""
    # concatenate, not np.pad: twice as fast on the (64, n) blocks of a run
    return np.concatenate([np.zeros((rows.shape[0], 1)), rows[:, k::2]], axis=1)


class FieldKernel:
    """Values and curvatures of DOF rows at local points ``xi`` of every
    element of length ``h``."""

    def __init__(self, h: float, xi):
        self.xi = np.asarray(xi, dtype=float)
        shapes = np.stack([hermite_shapes(x, h) for x in self.xi])  # (q, 4, 3)
        self._value, self._curvature = shapes[:, :, 0].T, shapes[:, :, 2].T

    def values(self, rows: np.ndarray, out: np.ndarray | None = None,
               padded: np.ndarray | None = None) -> np.ndarray:
        """u at the points: (T, n) rows -> (T, E, q), into ``out`` if given;
        ``padded`` as in ``element_local``."""
        return np.matmul(element_local(rows, padded), self._value, out=out)

    def curvatures(self, rows: np.ndarray, out: np.ndarray | None = None,
                   padded: np.ndarray | None = None) -> np.ndarray:
        """u_xx at the points (element-interior limits): (T, n) rows -> (T, E, q),
        into ``out`` if given; ``padded`` as in ``element_local``."""
        return np.matmul(element_local(rows, padded), self._curvature, out=out)


class Quadrature(FieldKernel):
    """Field kernel at the Gauss points of every element of a mesh.  The
    three flattened (E*q,) weight arrays ``w_rho``, ``w_mu``, ``w_r``
    integrate against rho, mu, r, exactly for products of two fields with
    polynomial coefficients."""

    def __init__(self, mesh: Mesh, problem: BeamProblem):
        xi, self._weights = _gauss_weights(problem, mesh.nodes[:-1], mesh.h)
        super().__init__(mesh.h, xi)
        self.w_rho, self.w_mu, self.w_r = self._weights.reshape(3, -1)

    @staticmethod
    def integral(weights: np.ndarray, f: np.ndarray, g: np.ndarray,
                 work: np.ndarray | None = None) -> np.ndarray:
        """Per-level ``int c f g dx`` of two (T, E, q) fields; ``work`` is an
        optional contiguous (T, E, q) array that receives the product."""
        return np.multiply(f, g, out=work).reshape(f.shape[0], -1) @ weights


def windows(n_levels: int):
    """Yield ``(first, stop)`` for each block of CHUNK_LEVELS interior levels
    of a run of ``n_levels`` levels, counted from level 1 (levels 1..64,
    65..128, ...; the last block is shorter): levels ``first .. stop - 1``
    are the block and one neighbouring level on each side, so consecutive
    windows share two levels.  This is the one cut of a history."""
    for lo in range(1, n_levels - 1, CHUNK_LEVELS):
        yield lo - 1, min(lo + CHUNK_LEVELS, n_levels - 1) + 1


def velocities(window: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """Centered velocity rows ``(U^{j+1} - U^{j-1}) / (2 dt)`` of a window's
    interior levels ``window[1:-1]``, into ``out`` if given."""
    ut = np.subtract(window[2:], window[:-2], out=out)
    return np.divide(ut, 2.0 * dt, out=ut)


def interpolate_profile(profile, mesh: Mesh) -> np.ndarray:
    """Nodal Hermite interpolant (values and slopes) of a spatial profile."""
    x = mesh.nodes[1:]  # node i >= 1 owns DOFs 2(i-1) (value) and 2(i-1)+1 (slope)
    out = np.empty(2 * mesh.element_count)
    out[0::2] = profile(x)
    out[1::2] = profile.d1(x)
    return out

