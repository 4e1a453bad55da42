"""Explicit exponential decay certificates and their verification.

The comparison constants

    beta0 = L^2/2 sqrt(rho1 / r0)
    beta1 = beta0 [1 + (1/sqrt(rho1 r0)) (L^2/2 mu1 + 2/L k_a + L k_v)]

squeeze the auxiliary functional between energies, -beta0 E <= J <= beta1 E.
When both boundary dampers vanish the tighter variant
``beta1 = beta0 [1 + L^2 mu1 / (4 sqrt(rho1 r0))]`` applies.  Any penalty
weight ``lam`` in the admissible window gives the envelope constants

    M_d = (1 + beta1 lam) / (1 - beta0 lam),   sigma = 2 lam / (1 + beta1 lam)

with E(t) <= M_d exp(-sigma t) E(0).  The window is
``min(1/beta0, mu0 / (2 rho1))`` in the viscously damped regime; in the
damper-only constant-coefficient regime (mu = 0) it is certified post hoc
from a computed trace:

    min( 1/beta0,  inf_t [k_a^2 u_xt(L,t)^2 + k_v^2 u_t(L,t)^2]
                   / (2 m sup_t ||u_t||_{L2}^2) )

provided the tip never comes to rest, u_xt(L,t)^2 + u_t(L,t)^2 > 0.  Grid
infima/suprema stand in for the continuum values, so theorem2 results are
conditional certificates attached to the trace that produced them.  They
need only running reductions over the run (``DamperWindow``): the first
time the tip is at rest, the least feedback and the largest ||u_t||^2.  So
the window is computed in the same streamed pass as the energies and never
needs the stored history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import integrate_data, interior_blocks
from .problem import BeamProblem
from .stepper import SolutionTrace

__all__ = [
    "DecayBound",
    "EnvelopeReport",
    "beta_constants",
    "classify_regime",
    "lambda_window",
    "DamperWindow",
    "decay_estimate",
    "scan_lambda",
    "compute_decay_bound",
    "verify_envelopes",
    "bound_report",
]

REGIMES = ("theorem1", "theorem1_special_4_1", "theorem2")


# ---------------------------------------------------------------------------
# comparison constants
# ---------------------------------------------------------------------------

def classify_regime(problem: BeamProblem) -> str:
    """Which decay certificate applies to this problem.

    theorem1              viscous damping present (inf mu > 0), dampers allowed
    theorem1_special_4_1  viscous damping only (k_a = k_v = 0), tighter beta1
    theorem2              damper-only constant-coefficient case (mu = 0)
    """
    mu0, mu1 = problem.mu_bounds
    bc = problem.boundary
    if mu0 > 0.0:
        return "theorem1_special_4_1" if bc.k_a == 0.0 and bc.k_v == 0.0 else "theorem1"
    if bc.k_a + bc.k_v <= 0.0:
        raise ValueError("k_a + k_v + mu0 > 0 fails: the system is undamped")
    rho0, rho1 = problem.rho_bounds
    r0, r1 = problem.rigidity_bounds
    if mu1 == 0.0 and rho0 == rho1 and r0 == r1:
        return "theorem2"
    raise ValueError(
        "no decay certificate applies: need either inf mu > 0 or the "
        "damper-only case with mu = 0 and constant rho, r")


def beta_constants(problem: BeamProblem) -> tuple[float, float]:
    """The comparison constants (beta0, beta1) of -beta0 E <= J <= beta1 E."""
    L = problem.length
    _, rho1 = problem.rho_bounds
    r0, _ = problem.rigidity_bounds
    _, mu1 = problem.mu_bounds
    bc = problem.boundary
    beta0 = 0.5 * L * L * math.sqrt(rho1 / r0)
    if bc.k_a == 0.0 and bc.k_v == 0.0:
        bracket = 1.0 + L * L * mu1 / (4.0 * math.sqrt(rho1 * r0))
    else:
        bracket = 1.0 + (0.5 * L * L * mu1 + 2.0 / L * bc.k_a + L * bc.k_v) \
            / math.sqrt(rho1 * r0)
    return beta0, beta0 * bracket


def lambda_window(problem: BeamProblem, trace: SolutionTrace | DamperWindow | None = None
                  ) -> tuple[float, str]:
    """Admissible penalty window upper bound and the regime that produced it.

    The damper-only regime needs the run: a stored trace, whose interior
    levels are fed to a ``DamperWindow`` here, or a ``DamperWindow`` already
    fed every interior level of a streamed run.  The tip-motion condition is
    checked at every grid time the run covers and the window quotient uses
    grid infima/suprema.
    """
    regime = classify_regime(problem)
    if regime in ("theorem1", "theorem1_special_4_1"):
        beta0, _ = beta_constants(problem)
        mu0, _ = problem.mu_bounds
        _, rho1 = problem.rho_bounds
        return min(1.0 / beta0, mu0 / (2.0 * rho1)), regime

    if trace is None:
        raise ValueError(
            "the damper-only (theorem2) window depends on the solution; "
            "pass a computed trace")
    window = trace
    if not isinstance(trace, DamperWindow):
        quad = trace.system.quadrature
        window = DamperWindow(problem, trace.grid)
        for out, _, ut in interior_blocks(trace.dof_history, trace.grid.dt):
            ut_q = quad.values(ut)
            window.add(out, ut, quad.integral(quad.w_plain, ut_q, ut_q))
    return window.value(), regime


class DamperWindow:
    """Running reductions of the damper-only (theorem2) window over one run.

    ``add(out, ut, ut_norm_sq)`` takes one block of interior levels as
    ``fem.InteriorBlocks`` yields it: the block's slice of the interior
    levels, its centered velocity rows and their squared L2 norms.  The
    window keeps the first grid time at which the tip is at rest, the running
    minimum of the damper feedback ``k_a^2 u_xt(L)^2 + k_v^2 u_t(L)^2`` and
    the running supremum of ``||u_t||^2``, all three seeded at t = 0 from the
    analytic initial velocity.  ``value()`` gives ``lambda_max`` or raises
    ValueError naming the first time the tip-motion condition fails.
    """

    def __init__(self, problem: BeamProblem, grid):
        self._problem, self._times = problem, grid.times
        u1, L = problem.initial.u1, problem.length
        self._first_rest = None          # grid level
        self._min_feedback = np.inf
        self._sup_norm_sq = integrate_data(problem, lambda x: u1(x) ** 2)
        self._tip(0, np.array([float(u1(L))]), np.array([float(u1.d1(L))]))

    def _tip(self, level: int, tip_vel: np.ndarray, tip_ang: np.ndarray) -> None:
        """Fold in the tip velocities of the levels ``level, level + 1, ...``."""
        if self._first_rest is None:
            rest = np.flatnonzero(tip_ang**2 + tip_vel**2 <= 0.0)
            if rest.size:
                self._first_rest = level + int(rest[0])
        bc = self._problem.boundary
        feedback = bc.k_a**2 * tip_ang**2 + bc.k_v**2 * tip_vel**2
        self._min_feedback = np.minimum(self._min_feedback, np.min(feedback))

    def add(self, out: slice, ut: np.ndarray, ut_norm_sq: np.ndarray) -> None:
        self._tip(out.start + 1, ut[:, -2], ut[:, -1])
        self._sup_norm_sq = max(self._sup_norm_sq, float(np.max(ut_norm_sq)))

    def value(self) -> float:
        if self._first_rest is not None:
            raise ValueError(
                f"tip-motion condition u_xt(L,t)^2 + u_t(L,t)^2 > 0 fails at "
                f"t = {self._times[self._first_rest]:.12g}")
        numerator = float(self._min_feedback)
        if numerator <= 0.0:
            raise ValueError(
                "admissible window is empty: the damper feedback power vanishes "
                "at some grid time")
        problem = self._problem
        beta0, _ = beta_constants(problem)
        m = float(problem.rho(0.0))
        return min(1.0 / beta0, numerator / (2.0 * m * self._sup_norm_sq))


# ---------------------------------------------------------------------------
# decay constants
# ---------------------------------------------------------------------------

def decay_estimate(beta0: float, beta1: float, lam: float) -> tuple[float, float]:
    """Envelope constants (M_d, sigma) for a penalty weight lam in (0, 1/beta0)."""
    if lam <= 0.0:
        raise ValueError(f"penalty weight must be positive; got {lam:g}")
    if lam * beta0 >= 1.0:
        raise ValueError(
            f"penalty weight must satisfy lam < 1/beta0 = {1.0 / beta0:.12g}; got {lam:g}")
    m_d = (1.0 + beta1 * lam) / (1.0 - beta0 * lam)
    sigma = 2.0 * lam / (1.0 + beta1 * lam)
    return m_d, sigma


def scan_lambda(beta0: float, beta1: float, lambda_max: float, points: int):
    """Table of (lam, M_d, sigma) on a uniform open grid of (0, lambda_max).

    sigma grows with lam while M_d diverges toward 1/beta0, so the table
    exposes the overshoot paid for a faster certified rate.
    """
    if points < 2:
        raise ValueError("scan needs at least 2 points")
    rows = []
    for i in range(1, points + 1):
        lam = lambda_max * i / (points + 1)
        m_d, sigma = decay_estimate(beta0, beta1, lam)
        rows.append((lam, m_d, sigma))
    return rows


@dataclass(frozen=True)
class DecayBound:
    """A decay certificate: comparison constants, window, envelope constants."""

    beta0: float
    beta1: float
    lambda_max: float
    lam: float
    M_d: float
    sigma: float
    regime: str


def compute_decay_bound(problem: BeamProblem, trace: SolutionTrace | None = None,
                        lam: float | None = None,
                        lambda_max: float | None = None) -> DecayBound:
    """Assemble the full certificate; lam defaults to 99% of the window.

    ``lambda_max`` passes in a window already computed for this trace (an
    ``EnergyTrace.lambda_max``), which saves the damper-only window a second
    pass over the history; None computes it with ``lambda_window``.
    """
    beta0, beta1 = beta_constants(problem)
    if lambda_max is None:
        lam_max, regime = lambda_window(problem, trace)
    else:
        lam_max, regime = lambda_max, classify_regime(problem)
    if lam_max <= 0.0:
        raise ValueError("admissible window is empty")
    if lam is None:
        lam = 0.99 * lam_max
    elif not 0.0 < lam < lam_max:
        raise ValueError(
            f"lambda must satisfy 0 < lambda < lambda_max = {lam_max:.12g}; got {lam:g}")
    m_d, sigma = decay_estimate(beta0, beta1, lam)
    return DecayBound(beta0, beta1, lam_max, lam, m_d, sigma, regime)


# ---------------------------------------------------------------------------
# envelope verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    """Margins of the three certified inequalities along one energy trace.

    Margins are the worst-case slacks (negative means violated) of
    J <= beta1 E, J >= -beta0 E and E <= M_d exp(-sigma t) E(0), each padded
    by ``tolerance``.  Runs with boundary forcing are marked informational:
    the inequalities are proved for the homogeneous system only.
    """

    violations_upper: int
    violations_lower: int
    violations_decay: int
    worst_margin_upper: float
    worst_margin_lower: float
    worst_margin_decay: float
    first_violation_time: float | None
    tolerance: float
    informational: bool

    @property
    def ok(self) -> bool:
        return (self.violations_upper + self.violations_lower
                + self.violations_decay) == 0

    def to_dict(self) -> dict:
        return {
            "violations": {
                "upper": self.violations_upper,
                "lower": self.violations_lower,
                "decay": self.violations_decay,
            },
            "worst_margins": {
                "upper": self.worst_margin_upper,
                "lower": self.worst_margin_lower,
                "decay": self.worst_margin_decay,
            },
            "first_violation_time": self.first_violation_time,
            "tolerance": self.tolerance,
            "informational": self.informational,
        }


def verify_envelopes(energy_trace, bound: DecayBound) -> EnvelopeReport:
    """Check the certified inequalities against a computed energy trace.

    The tolerance ``1e-8 E(0) + 1e-3 E(0)`` absorbs rounding plus the
    discretization slack of the trace; the slack term shrinks with
    refinement in the sense that refined traces sit further inside the
    envelope, and it is reported alongside the margins.
    """
    e0 = energy_trace.E0
    tol = 1e-8 * e0 + 1e-3 * e0
    times, e_vals, j_vals = energy_trace.times, energy_trace.E, energy_trace.J

    margin_upper = bound.beta1 * e_vals + tol - j_vals
    margin_lower = j_vals + bound.beta0 * e_vals + tol
    margin_decay = bound.M_d * np.exp(-bound.sigma * times) * e0 + tol - e_vals

    bad = (margin_upper < 0.0) | (margin_lower < 0.0) | (margin_decay < 0.0)
    first = float(times[np.argmax(bad)]) if bool(np.any(bad)) else None

    return EnvelopeReport(
        violations_upper=int(np.sum(margin_upper < 0.0)),
        violations_lower=int(np.sum(margin_lower < 0.0)),
        violations_decay=int(np.sum(margin_decay < 0.0)),
        worst_margin_upper=float(np.min(margin_upper)),
        worst_margin_lower=float(np.min(margin_lower)),
        worst_margin_decay=float(np.min(margin_decay)),
        first_violation_time=first,
        tolerance=tol,
        informational=energy_trace.forced,
    )


def bound_report(bound: DecayBound, scan_points: int = 9,
                 envelope: EnvelopeReport | None = None) -> dict:
    """JSON-ready report: constants, window, scan table, envelope check."""
    scan = [
        {"lambda": lam, "M_d": m_d, "sigma": sigma}
        for lam, m_d, sigma in scan_lambda(bound.beta0, bound.beta1,
                                           bound.lambda_max, scan_points)
    ]
    return {
        "beta0": bound.beta0,
        "beta1": bound.beta1,
        "lambda_max": bound.lambda_max,
        "lambda": bound.lam,
        "M_d": bound.M_d,
        "sigma": bound.sigma,
        "regime": bound.regime,
        "scan": scan,
        "envelope": envelope.to_dict() if envelope is not None else None,
    }
