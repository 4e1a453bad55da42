"""Explicit exponential decay certificates and their verification.

The comparison constants

    beta0 = L^2/2 sqrt(rho1 / r0)
    beta1 = beta0 [1 + (1/sqrt(rho1 r0)) (L^2/2 mu1 + 2/L k_a + L k_v)]

squeeze the auxiliary functional between energies, -beta0 E <= J <= beta1 E.
When both boundary dampers vanish the tighter variant
``beta1 = beta0 [1 + L^2 mu1 / (4 sqrt(rho1 r0))]`` applies.  Any penalty
weight ``lam`` in the admissible window gives the envelope constants

    M_d = (1 + beta1 lam) / (1 - beta0 lam),   sigma = 2 lam / (1 + beta1 lam)

with E(t) <= M_d exp(-sigma t) E(0).  ``lambda_window`` gives the window of
every regime: ``min(1/beta0, mu0 / (2 rho1))`` in the viscously damped
regime; in the damper-only constant-coefficient regime (mu = 0, rho = m) it
is certified post hoc from a computed run:

    min( 1/beta0,  inf_t [k_a^2 u_xt(L,t)^2 + k_v^2 u_t(L,t)^2]
                   / (2 sup_t int rho u_t^2) )

provided the tip never comes to rest, u_xt(L,t)^2 + u_t(L,t)^2 > 0.  As
rho = m, the denominator is the paper's ``2 m sup_t ||u_t||^2``, read from
the kinetic term of the energy.  Grid infima/suprema stand in for the
continuum values, so theorem2 results are conditional certificates
attached to the run that produced them.  The energy diagnostics own the
run's per-level record over the grid times t_0..t_{N-2}, level 0 from the
analytic initial data; they pass its rows u_t(L), u_xt(L) and
int rho u_t^2 to ``compute_decay_bound``, the one place a run's
certificate is decided.  This module reads nothing else of a run and
depends on ``problem`` alone.  The trace carries the certificate as
``EnergyTrace.bound``, and ``bound_report`` renders every bounds.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import BeamProblem

__all__ = [
    "DecayBound",
    "EnvelopeReport",
    "beta_constants",
    "classify_regime",
    "lambda_window",
    "check_explicit_penalty",
    "decay_estimate",
    "scan_lambda",
    "compute_decay_bound",
    "verify_envelopes",
    "bound_report",
]

# rows of the (lam, M_d, sigma) table in a bound report
SCAN_POINTS = 9

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
    if not problem.is_damped:
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


def lambda_window(problem: BeamProblem, run=None) -> tuple[float, str]:
    """Admissible penalty window upper bound and the regime that produced it.

    The theorem-1 windows follow from the problem alone and ignore ``run``.
    The damper-only (theorem2) window is taken from ``run = (grid, tip_vel,
    tip_ang, kinetic)``: u_t(L), u_xt(L) and int rho u_t^2 at the grid times
    t_0..t_{N-2}, entry j at ``grid.times[j]``.  Raises ValueError without a
    run, naming the first grid time at which the tip is at rest, or when
    the least damper feedback ``k_a^2 u_xt(L)^2 + k_v^2 u_t(L)^2`` vanishes.
    """
    regime = classify_regime(problem)
    beta0, _ = beta_constants(problem)
    if regime != "theorem2":
        mu0, _ = problem.mu_bounds
        _, rho1 = problem.rho_bounds
        return min(1.0 / beta0, mu0 / (2.0 * rho1)), regime
    if run is None:
        raise ValueError(
            "the damper-only (theorem2) window depends on the solution; "
            "take it from a computed energy trace (EnergyTrace.bound)")
    grid, tip_vel, tip_ang, kinetic = run
    rest = np.flatnonzero(tip_ang**2 + tip_vel**2 <= 0.0)
    if rest.size:
        raise ValueError(
            f"tip-motion condition u_xt(L,t)^2 + u_t(L,t)^2 > 0 fails at "
            f"t = {grid.times[rest[0]]:.12g}")
    bc = problem.boundary
    numerator = float(np.min(bc.k_a**2 * tip_ang**2 + bc.k_v**2 * tip_vel**2))
    if numerator <= 0.0:
        raise ValueError(
            "admissible window is empty: the damper feedback power vanishes "
            "at some grid time")
    return min(1.0 / beta0, numerator / (2.0 * float(np.max(kinetic)))), regime


# ---------------------------------------------------------------------------
# decay constants
# ---------------------------------------------------------------------------

def decay_estimate(beta0: float, beta1: float, lam: float) -> tuple[float, float]:
    """Envelope constants (M_d, sigma) for a penalty weight lam in (0, 1/beta0)."""
    if not lam > 0.0:   # NaN too
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


def _penalty(lam_max: float, lam: float | None) -> float:
    """The penalty weight in the open window (0, lam_max): ``lam`` checked,
    or 99% of the window when it is None."""
    if lam_max <= 0.0:
        raise ValueError("admissible window is empty")
    if lam is None:
        return 0.99 * lam_max
    if not 0.0 < lam < lam_max:
        raise ValueError(
            f"lambda must satisfy 0 < lambda < lambda_max = {lam_max:.12g}; got {lam:g}")
    return lam


def compute_decay_bound(problem: BeamProblem, *, lam: float | None = None,
                        run=None) -> DecayBound:
    """Assemble the full certificate.  This is where the window and the
    penalty weight are decided: ``lam`` defaults to 99% of the window, and
    an explicit ``lam`` outside the open window, or with no window, is
    rejected.  ``run`` is passed on to ``lambda_window``, from which the
    damper-only regime takes its window.
    """
    beta0, beta1 = beta_constants(problem)
    try:
        lam_max, regime = lambda_window(problem, run)
    except ValueError as exc:
        if lam is None:
            raise
        raise ValueError(f"no admissible penalty weight: {exc}") from None
    lam = _penalty(lam_max, lam)
    m_d, sigma = decay_estimate(beta0, beta1, lam)
    return DecayBound(beta0, beta1, lam_max, lam, m_d, sigma, regime)


def check_explicit_penalty(problem: BeamProblem, lam: float | None) -> None:
    """Reject an explicit penalty weight that no run can make admissible:
    any ``lam`` when no certificate applies, one outside a window that needs
    no run, or one outside (0, 1/beta0), which holds the damper-only window
    that only the run gives (``compute_decay_bound`` checks that one)."""
    if lam is None:
        return
    try:
        regime = classify_regime(problem)
    except ValueError as exc:
        raise ValueError(f"no admissible penalty weight: {exc}") from None
    if regime != "theorem2":
        _penalty(lambda_window(problem)[0], lam)
    else:
        decay_estimate(*beta_constants(problem), lam)


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


def bound_report(problem: BeamProblem, energy_trace=None, lam: float | None = None) -> dict:
    """JSON-ready bounds.json: constants, window, scan table of SCAN_POINTS
    rows, envelope check.  Without ``energy_trace``: the certificate that
    needs no run (``lam`` as in ``compute_decay_bound``), no envelope.  With
    one: the run's ``energy_trace.bound`` and its envelope check or, if the
    run has none, null entries, an empty scan and a ``note`` saying why."""
    report = dict.fromkeys(("lambda_max", "lambda", "M_d", "sigma", "regime", "envelope"))
    report["beta0"], report["beta1"] = beta_constants(problem)
    if energy_trace is None:
        bound = compute_decay_bound(problem, lam=lam)
    elif energy_trace.bound is None:
        report.update(scan=[], note=energy_trace.window_error)
        return report
    else:
        bound = energy_trace.bound
        report["envelope"] = verify_envelopes(energy_trace, bound).to_dict()
    report.update({
        "lambda_max": bound.lambda_max,
        "lambda": bound.lam,
        "M_d": bound.M_d,
        "sigma": bound.sigma,
        "regime": bound.regime,
        "scan": [{"lambda": row_lam, "M_d": m_d, "sigma": sigma}
                 for row_lam, m_d, sigma in scan_lambda(bound.beta0, bound.beta1,
                                                        bound.lambda_max, SCAN_POINTS)],
    })
    return report
