"""Beam problem definition, validation, presets and JSON serialization.

A :class:`BeamProblem` bundles everything needed to simulate a transversally
vibrating Euler-Bernoulli beam that is clamped at ``x = 0`` and held at
``x = L`` by a rotational spring ``k_r``, a displacement spring ``k_d``, an
angular damper ``k_a`` and a velocity damper ``k_v``:

    rho(x) u_tt + mu(x) u_t + (r(x) u_xx)_xx = 0        on (0, L) x (0, T]

with end moment  -(r u_xx)(L)   = k_r u_x(L) + k_a u_xt(L) + g_M(t)
and  end shear   (r u_xx)_x(L)  = k_d u(L)   + k_v u_t(L)  + g_Q(t).

All quantities are SI.  Problems are immutable after construction and safe
to share between concurrent simulations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "CoefficientField",
    "TimeFunction",
    "SpatialProfile",
    "BoundaryParams",
    "BoundaryForcing",
    "InitialData",
    "BeamProblem",
    "ValidationReport",
    "validate",
    "coefficient_bounds",
    "preset",
    "PRESET_NAMES",
    "ExactSolution",
    "exact_solution",
    "problem_to_dict",
    "problem_from_dict",
    "problem_to_json",
    "problem_from_json",
    "save_problem",
    "load_problem",
]


# ---------------------------------------------------------------------------
# spatially varying coefficients
# ---------------------------------------------------------------------------

def _table_pairs(nodes, values, what: str = "table", var: str = "x",
                 least: int = 2) -> tuple[tuple, tuple]:
    """The (nodes, values) of a table as floats, checked: at least ``least``
    matching pairs, nodes strictly increasing."""
    nodes = tuple(float(v) for v in nodes)
    values = tuple(float(v) for v in values)
    if len(nodes) != len(values) or len(nodes) < least:
        raise ValueError(f"{what} needs >= {least} matching ({var}, value) pairs")
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValueError(f"{what} {var} nodes must be strictly increasing")
    return nodes, values


def _number(value):
    """``value`` if it is a JSON number (an int or a float); TypeError for a
    bool or a string, which ``float`` would read as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _numbers(values) -> list:
    """A JSON array of numbers, each checked by ``_number``."""
    return [_number(v) for v in values]


@dataclass(frozen=True)
class CoefficientField:
    """A spatially varying material coefficient on ``[0, L]``.

    kind : 'constant', 'polynomial' or 'table'
    data : kind-specific parameters
        constant   -> (value,), evaluated as the degree-0 polynomial
        polynomial -> ascending coefficients (c0, c1, ...)
        table      -> ((x nodes...), (values...)), linear interpolation
    """

    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial", "table"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    @staticmethod
    def constant(value: float) -> "CoefficientField":
        return CoefficientField("constant", (float(value),))

    @staticmethod
    def polynomial(coeffs) -> "CoefficientField":
        return CoefficientField("polynomial", tuple(float(c) for c in coeffs))

    @staticmethod
    def table(x, values) -> "CoefficientField":
        return CoefficientField("table", _table_pairs(x, values))

    def __call__(self, x):
        """Evaluate the coefficient at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return np.interp(x, *self.data)
        return npoly.polyval(x, self.data)

    @property
    def knots(self) -> tuple:
        """A table's x nodes, where the coefficient may have a kink; () otherwise."""
        return self.data[0] if self.kind == "table" else ()

    @property
    def degree(self) -> int:
        """Polynomial degree used to size quadrature rules (tables count as 1)."""
        return 1 if self.kind == "table" else max(len(self.data) - 1, 0)

    def scaled(self, s: float) -> "CoefficientField":
        """The coefficient times ``s``, of the same kind."""
        if self.kind == "table":
            xs, ys = self.data
            return CoefficientField("table", (xs, tuple(float(y * s) for y in ys)))
        return CoefficientField(self.kind, tuple(float(c * s) for c in self.data))

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "data": self.data[0]}
        if self.kind == "polynomial":
            return {"kind": "polynomial", "data": list(self.data)}
        return {"kind": "table", "data": {"x": list(self.data[0]), "y": list(self.data[1])}}

    @staticmethod
    def from_dict(d: dict) -> "CoefficientField":
        kind, data = d["kind"], d["data"]
        if kind == "constant":
            return CoefficientField.constant(_number(data))
        if kind == "polynomial":
            return CoefficientField.polynomial(_numbers(data))
        if kind == "table":
            return CoefficientField.table(_numbers(data["x"]), _numbers(data["y"]))
        raise ValueError(f"unknown coefficient kind {kind!r}")


def coefficient_bounds(coeff: CoefficientField, length: float) -> tuple[float, float]:
    """Exact (inf, sup) of a coefficient over ``[0, length]``.

    Constant and polynomial kinds are resolved through the critical points of
    the polynomial on the interval; table kinds attain their extrema at the
    nodes of the linear interpolant.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if coeff.kind != "table":
        candidates = [0.0, length]
        deriv = npoly.polyder(coeff.data)
        if len(deriv) > 1 or (len(deriv) == 1 and deriv[0] != 0.0):
            for root in npoly.polyroots(deriv):
                if abs(root.imag) < 1e-12 and 0.0 <= root.real <= length:
                    candidates.append(float(root.real))
        values = npoly.polyval(np.asarray(candidates), coeff.data)
        return float(np.min(values)), float(np.max(values))
    xs, ys = (np.asarray(a) for a in coeff.data)
    inside = (xs >= 0.0) & (xs <= length)
    candidates = list(ys[inside]) + [np.interp(0.0, xs, ys), np.interp(length, xs, ys)]
    return float(np.min(candidates)), float(np.max(candidates))


# ---------------------------------------------------------------------------
# time-dependent boundary forcing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """Scalar function of time: 'zero', 'exponential' a*exp(b*t), or 'table'."""

    kind: str
    data: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zero", "exponential", "table"):
            raise ValueError(f"unknown time-function kind {self.kind!r}")

    @staticmethod
    def zero() -> "TimeFunction":
        return TimeFunction("zero", ())

    @staticmethod
    def exponential(a: float, b: float) -> "TimeFunction":
        return TimeFunction("exponential", (float(a), float(b)))

    @staticmethod
    def table(t, values) -> "TimeFunction":
        return TimeFunction("table", _table_pairs(t, values, var="t"))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "exponential":
            a, b = self.data
            return a * np.exp(b * t)
        ts, ys = self.data
        return np.interp(t, ts, ys)

    @property
    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "exponential":
            return self.data[0] == 0.0
        return all(v == 0.0 for v in self.data[1])

    def to_dict(self) -> dict:
        if self.kind == "zero":
            return {"kind": "zero", "data": None}
        if self.kind == "exponential":
            return {"kind": "exponential", "data": {"a": self.data[0], "b": self.data[1]}}
        return {"kind": "table", "data": {"t": list(self.data[0]), "y": list(self.data[1])}}

    @staticmethod
    def from_dict(d: dict) -> "TimeFunction":
        kind, data = d["kind"], d["data"]
        if kind == "zero":
            return TimeFunction.zero()
        if kind == "exponential":
            return TimeFunction.exponential(_number(data["a"]), _number(data["b"]))
        if kind == "table":
            return TimeFunction.table(_numbers(data["t"]), _numbers(data["y"]))
        raise ValueError(f"unknown time-function kind {kind!r}")


# ---------------------------------------------------------------------------
# initial data profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialProfile:
    """Initial displacement/velocity profile: 'polynomial' or 'table'.

    Table data is interpolated with a cubic spline so that two spatial
    derivatives exist everywhere (a piecewise-linear read would flatten the
    curvature and corrupt the initial bending energy).  Displacement tables
    use a clamped left end (zero slope at ``x = 0``) to stay compatible with
    the clamped boundary.
    """

    kind: str
    data: tuple
    clamp_left: bool = False

    def __post_init__(self):
        if self.kind not in ("polynomial", "table"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "table":
            from scipy.interpolate import CubicSpline  # slow import, tables only

            xs, ys = self.data
            left = (1, 0.0) if self.clamp_left else "not-a-knot"
            spline = CubicSpline(xs, ys, bc_type=(left, "not-a-knot"))
            object.__setattr__(self, "_spline", spline)

    @staticmethod
    def polynomial(coeffs) -> "SpatialProfile":
        return SpatialProfile("polynomial", tuple(float(c) for c in coeffs))

    @staticmethod
    def table(x, values, clamp_left: bool = False) -> "SpatialProfile":
        return SpatialProfile("table", _table_pairs(x, values, "profile table", least=4),
                              clamp_left)

    def _derivative(self, x, nu: int):
        """The nu-th derivative of the profile at ``x``."""
        x = np.asarray(x, dtype=float)
        if self.kind == "table":
            return self._spline(x, nu)
        return npoly.polyval(x, npoly.polyder(self.data, nu))

    @property
    def knots(self) -> tuple:
        """A table's x nodes, where the spline's third derivative jumps; () otherwise."""
        return self.data[0] if self.kind == "table" else ()

    def __call__(self, x):
        return self._derivative(x, 0)

    def d1(self, x):
        return self._derivative(x, 1)

    def d2(self, x):
        return self._derivative(x, 2)

    def to_dict(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "data": list(self.data)}
        return {"kind": "table", "data": {"x": list(self.data[0]), "y": list(self.data[1])}}

    @staticmethod
    def from_dict(d: dict, clamp_left: bool = False) -> "SpatialProfile":
        kind, data = d["kind"], d["data"]
        if kind == "polynomial":
            return SpatialProfile.polynomial(_numbers(data))
        if kind == "table":
            return SpatialProfile.table(_numbers(data["x"]), _numbers(data["y"]), clamp_left)
        raise ValueError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# problem aggregate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryParams:
    """Spring and damper constants at the controlled end ``x = L``.

    k_r : rotational spring (moment per rotation), k_d : displacement spring,
    k_a : angular damper (moment per angular velocity), k_v : velocity damper.
    Springs are conservative (they enter the stored energy); dampers are
    dissipative (they enter the decay rate).
    """

    k_r: float = 0.0
    k_d: float = 0.0
    k_a: float = 0.0
    k_v: float = 0.0

    def to_dict(self) -> dict:
        return {"k_r": self.k_r, "k_d": self.k_d, "k_a": self.k_a, "k_v": self.k_v}

    @staticmethod
    def from_dict(d: dict) -> "BoundaryParams":
        return BoundaryParams(*(float(_number(d[key])) for key in ("k_r", "k_d", "k_a", "k_v")))


@dataclass(frozen=True)
class BoundaryForcing:
    """Inhomogeneous end loads: extra moment g_M(t) and shear g_Q(t) at x = L.

    g_M is the amount by which the end moment -(r u_xx)(L) exceeds the
    spring/damper feedback, g_Q the same for the end shear (r u_xx)_x(L).
    Both default to zero; any nonzero forcing voids the energy-decay
    guarantees and is flagged in every report it affects.
    """

    g_M: TimeFunction = field(default_factory=TimeFunction.zero)
    g_Q: TimeFunction = field(default_factory=TimeFunction.zero)

    @property
    def is_zero(self) -> bool:
        return self.g_M.is_zero and self.g_Q.is_zero

    def to_dict(self) -> dict:
        return {"g_M": self.g_M.to_dict(), "g_Q": self.g_Q.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "BoundaryForcing":
        return BoundaryForcing(TimeFunction.from_dict(d["g_M"]), TimeFunction.from_dict(d["g_Q"]))


@dataclass(frozen=True)
class InitialData:
    """Initial displacement u0(x) and velocity u1(x)."""

    u0: SpatialProfile
    u1: SpatialProfile

    def to_dict(self) -> dict:
        return {"u0": self.u0.to_dict(), "u1": self.u1.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "InitialData":
        return InitialData(
            SpatialProfile.from_dict(d["u0"], clamp_left=True),
            SpatialProfile.from_dict(d["u1"]),
        )


@dataclass(frozen=True)
class BeamProblem:
    """A complete beam instance: geometry, coefficients, end hardware, data.

    Immutable; field ``rigidity`` is the flexural stiffness r(x) = E(x) I(x)
    (serialized under the JSON key ``r``).
    """

    length: float
    final_time: float
    rho: CoefficientField
    mu: CoefficientField
    rigidity: CoefficientField
    boundary: BoundaryParams
    forcing: BoundaryForcing = field(default_factory=BoundaryForcing)
    initial: InitialData = None

    @property
    def mu_bounds(self) -> tuple[float, float]:
        return coefficient_bounds(self.mu, self.length)

    @property
    def rho_bounds(self) -> tuple[float, float]:
        return coefficient_bounds(self.rho, self.length)

    @property
    def rigidity_bounds(self) -> tuple[float, float]:
        return coefficient_bounds(self.rigidity, self.length)

    @property
    def is_damped(self) -> bool:
        """True when k_a + k_v + inf(mu) > 0 (some dissipation is present)."""
        return self.boundary.k_a + self.boundary.k_v + self.mu_bounds[0] > 0.0

    @property
    def has_forcing(self) -> bool:
        return not self.forcing.is_zero


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: structural errors, condition violations, warnings."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        lines = [f"ERROR: {e}" for e in self.errors]
        lines += [f"WARNING: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


# raised by evaluating malformed data: wrong shapes (ValueError, IndexError),
# non-numeric entries (TypeError), an integer too large for a float
# (ArithmeticError); numpy's own overflow gives inf
_EVALUATION_ERRORS = (ValueError, TypeError, IndexError, ArithmeticError)


def _check_evaluable(func, span, name, errors, *, finite: bool) -> bool:
    """Whether ``func`` (a coefficient, profile or time function) can be
    evaluated on [0, span], to finite values if ``finite``, and, if a table,
    has strictly increasing nodes covering it; if not, the first failure is
    appended to ``errors``."""
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(func(np.linspace(0.0, span, 101)), dtype=float)
        if finite and not np.all(np.isfinite(v)):
            errors.append(f"{name}: not finite everywhere on [0, {span}]")
            return False
    except _EVALUATION_ERRORS as exc:
        errors.append(f"{name}: not evaluable on [0, {span}] ({exc})")
        return False
    if func.kind == "table":
        xs = func.data[0]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            errors.append(f"{name}: table nodes must be strictly increasing")
            return False
        if xs[0] > 0.0 or xs[-1] < span:
            errors.append(f"{name}: table [{xs[0]}, {xs[-1]}] does not cover [0, {span}]")
            return False
    return True


def validate(problem: BeamProblem) -> ValidationReport:
    """Check the admissibility conditions on the inputs.

    An empty report means every clause holds:  0 < rho0 <= rho(x) <= rho1,
    0 < r0 <= r(x) <= r1,  0 <= mu0 <= mu(x) <= mu1,  all four boundary
    constants finite and nonnegative, finite forcing parameters, every
    function evaluable (the coefficients and initial profiles on [0, L],
    finite there; the forcing on [0, T]), table nodes strictly increasing
    and covering that interval, initial displacement clamped-compatible.  A
    failing damping-presence clause ``k_a + k_v + mu0 > 0`` is reported as a
    warning only: the system is then undamped and no decay certificate from
    the damped-case analysis applies.
    """
    report = ValidationReport()
    errs = report.errors

    if not (problem.length > 0.0 and math.isfinite(problem.length)):
        errs.append("length must be positive and finite")
        return report
    if not (problem.final_time > 0.0 and math.isfinite(problem.final_time)):
        errs.append("final_time must be positive and finite")

    L = problem.length
    fields = [("rho", problem.rho), ("mu", problem.mu), ("r", problem.rigidity)]
    evaluable = {name: _check_evaluable(c, L, name, errs, finite=True) for name, c in fields}

    if evaluable["rho"]:
        rho0, _ = problem.rho_bounds
        if rho0 <= 0.0:
            errs.append(f"rho0 > 0 fails (inf rho = {rho0:g})")
    if evaluable["r"]:
        r0, _ = problem.rigidity_bounds
        if r0 <= 0.0:
            errs.append(f"r0 > 0 fails (inf r = {r0:g})")
    if evaluable["mu"]:
        mu0, _ = problem.mu_bounds
        if mu0 < 0.0:
            errs.append(f"mu0 >= 0 fails (inf mu = {mu0:g})")

    b = problem.boundary
    for name, value in (("k_r", b.k_r), ("k_d", b.k_d), ("k_a", b.k_a), ("k_v", b.k_v)):
        if not math.isfinite(value):
            errs.append(f"{name} must be finite ({name} = {value:g})")
        elif value < 0.0:
            errs.append(f"{name} >= 0 fails ({name} = {value:g})")

    if problem.initial is None:
        errs.append("initial: missing initial data")
    else:
        for name, prof in (("initial.u0", problem.initial.u0), ("initial.u1", problem.initial.u1)):
            _check_evaluable(prof, L, name, errs, finite=True)
        try:
            u0_at_0 = float(problem.initial.u0(0.0))
            u0x_at_0 = float(problem.initial.u0.d1(0.0))
            scale = max(1.0, float(np.max(np.abs(problem.initial.u0(np.linspace(0, L, 101))))))
            if abs(u0_at_0) > 1e-10 * scale or abs(u0x_at_0) > 1e-10 * scale:
                errs.append(
                    "initial.u0: clamped compatibility u0(0) = u0'(0) = 0 fails "
                    f"(u0(0) = {u0_at_0:g}, u0'(0) = {u0x_at_0:g})"
                )
        except _EVALUATION_ERRORS:
            pass  # evaluability failure already recorded

    for name, g in (("forcing.g_M", problem.forcing.g_M), ("forcing.g_Q", problem.forcing.g_Q)):
        # an end load that overflows is its run's numerical failure, not bad data
        if (_check_evaluable(g, problem.final_time, name, errs, finite=False)
                and not np.isfinite(np.ravel(g.data)).all()):
            errs.append(f"{name}: parameters must be finite")

    if not errs:
        if not problem.is_damped:
            report.warnings.append(
                "k_a + k_v + mu0 > 0 fails: no viscous or boundary damping present"
            )
    return report


# ---------------------------------------------------------------------------
# serialization (JSON round trips are byte-identical)
# ---------------------------------------------------------------------------

def problem_to_dict(problem: BeamProblem) -> dict:
    return {
        "length": problem.length,
        "final_time": problem.final_time,
        "rho": problem.rho.to_dict(),
        "mu": problem.mu.to_dict(),
        "r": problem.rigidity.to_dict(),
        "boundary": problem.boundary.to_dict(),
        "forcing": problem.forcing.to_dict(),
        "initial": problem.initial.to_dict(),
    }


def problem_from_dict(d: dict) -> BeamProblem:
    return BeamProblem(
        length=float(_number(d["length"])),
        final_time=float(_number(d["final_time"])),
        rho=CoefficientField.from_dict(d["rho"]),
        mu=CoefficientField.from_dict(d["mu"]),
        rigidity=CoefficientField.from_dict(d["r"]),
        boundary=BoundaryParams.from_dict(d["boundary"]),
        forcing=BoundaryForcing.from_dict(d["forcing"]),
        initial=InitialData.from_dict(d["initial"]),
    )


def problem_to_json(problem: BeamProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2, sort_keys=True) + "\n"


def problem_from_json(text: str) -> BeamProblem:
    return problem_from_dict(json.loads(text))


def save_problem(problem: BeamProblem, path) -> None:
    with open(path, "w") as fh:
        fh.write(problem_to_json(problem))


def load_problem(path) -> BeamProblem:
    with open(path) as fh:
        return problem_from_json(fh.read())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _load_shape() -> SpatialProfile:
    # (6x^2 - 4x^3 + x^4)/3: static deflection of a uniformly loaded
    # cantilever, so the free-end moment and shear vanish and the release
    # excites no artificial tip transient
    return SpatialProfile.polynomial((0.0, 0.0, 2.0, -4.0 / 3.0, 1.0 / 3.0))


def _preset_cantilever_free() -> BeamProblem:
    # fixed-free beam, no end hardware; dissipation only through mu
    return BeamProblem(
        length=1.0,
        final_time=2.0,
        rho=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(2.0),
        rigidity=CoefficientField.constant(1.0),
        boundary=BoundaryParams(0.0, 0.0, 0.0, 0.0),
        initial=InitialData(u0=_load_shape(), u1=SpatialProfile.polynomial((0.0,))),
    )


def _preset_cantilever_spring() -> BeamProblem:
    # springs only at the free end; dissipation only through mu; the initial
    # shape (127x^2 - 108x^3 + 29x^4)/48 balances the end moment and shear
    # against both springs at release, so no artificial tip transient rings
    return BeamProblem(
        length=1.0,
        final_time=2.0,
        rho=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(1.0),
        rigidity=CoefficientField.constant(1.0),
        boundary=BoundaryParams(k_r=1.0, k_d=1.0, k_a=0.0, k_v=0.0),
        initial=InitialData(
            u0=SpatialProfile.polynomial((0.0, 0.0, 127.0 / 48.0, -108.0 / 48.0,
                                          29.0 / 48.0)),
            u1=SpatialProfile.polynomial((0.0,))),
    )


def _preset_cantilever_dampers() -> BeamProblem:
    # dampers only at the free end, plus viscous damping in the bulk
    return BeamProblem(
        length=1.0,
        final_time=2.0,
        rho=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(1.0),
        rigidity=CoefficientField.constant(1.0),
        boundary=BoundaryParams(k_r=0.0, k_d=0.0, k_a=1.0, k_v=1.0),
        initial=InitialData(u0=_load_shape(), u1=SpatialProfile.polynomial((0.0,))),
    )


def _preset_mast_constant() -> BeamProblem:
    # constant-coefficient mast control model: m u_tt + EI u_xxxx = 0 with
    # rate feedback at the tip; m = EI = 1, no viscous damping; nonzero tip
    # velocity keeps the rate-feedback condition active from t = 0
    return BeamProblem(
        length=1.0,
        final_time=2.0,
        rho=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(0.0),
        rigidity=CoefficientField.constant(1.0),
        boundary=BoundaryParams(k_r=0.0, k_d=0.0, k_a=1.0, k_v=1.0),
        initial=InitialData(u0=_load_shape(),
                            u1=SpatialProfile.polynomial((0.0, 0.0, 1.0))),
    )


def _preset_test_ne1() -> BeamProblem:
    # verification problem with known exact solution u = x^2 exp(-2t); the
    # exact solution violates the homogeneous end conditions, so it needs
    # the exponential moment/shear forcing below
    return BeamProblem(
        length=1.0,
        final_time=1.5,
        rho=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(2.0),
        rigidity=CoefficientField.polynomial((1.0, 1.0)),
        boundary=BoundaryParams(k_r=6.0, k_d=4.0, k_a=3.0, k_v=2.0),
        forcing=BoundaryForcing(g_M=TimeFunction.exponential(-4.0, -2.0),
                                g_Q=TimeFunction.exponential(2.0, -2.0)),
        initial=InitialData(u0=SpatialProfile.polynomial((0.0, 0.0, 1.0)),
                            u1=SpatialProfile.polynomial((0.0, 0.0, -2.0))),
    )


_PRESETS = {
    "cantilever_free": _preset_cantilever_free,
    "cantilever_spring": _preset_cantilever_spring,
    "cantilever_dampers": _preset_cantilever_dampers,
    "mast_constant": _preset_mast_constant,
    "test_NE1": _preset_test_ne1,
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> BeamProblem:
    """Build one of the named example problems."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return builder()


# ---------------------------------------------------------------------------
# attached exact solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution attached to a preset, for error measurement."""

    u: callable
    u_x: callable
    u_t: callable
    u_xx: callable


def exact_solution(name: str) -> ExactSolution:
    """Exact solution for a preset, if one is known (only ``test_NE1``)."""
    if name == "test_NE1":
        return ExactSolution(
            u=lambda x, t: np.asarray(x) ** 2 * np.exp(-2.0 * np.asarray(t)),
            u_x=lambda x, t: 2.0 * np.asarray(x) * np.exp(-2.0 * np.asarray(t)),
            u_t=lambda x, t: -2.0 * np.asarray(x) ** 2 * np.exp(-2.0 * np.asarray(t)),
            u_xx=lambda x, t: 2.0 * np.ones_like(np.asarray(x, dtype=float)) * np.exp(-2.0 * np.asarray(t)),
        )
    raise ValueError(f"preset {name!r} has no attached exact solution")
