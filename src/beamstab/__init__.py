"""Damped Euler-Bernoulli beam: simulation and explicit decay certificates.

The package simulates the clamped beam held by boundary springs and dampers
(Hermite-cubic finite elements in space, three-level implicit backward
differences in time), evaluates the total energy, the auxiliary and Lyapunov
functionals and the dissipation integrals along the computed motion, and
checks the explicit exponential-decay envelopes against the traces.
"""

from .problem import (
    BeamProblem,
    BoundaryForcing,
    BoundaryParams,
    CoefficientField,
    InitialData,
    SpatialProfile,
    TimeFunction,
    ValidationReport,
    coefficient_bounds,
    exact_solution,
    load_problem,
    preset,
    PRESET_NAMES,
    problem_from_json,
    problem_to_json,
    save_problem,
    validate,
)
from .fem import (
    BandedSymmetricMatrix,
    DofMap,
    Mesh,
    SemiDiscreteSystem,
    assemble,
    evaluate_solution,
    hermite_shapes,
)
from .stepper import (
    SolutionTrace,
    TimeGrid,
    TimeStepper,
    TraceWriter,
    export_trace_csv,
    interpolate,
    run,
    run_system,
)
from .diagnostics import (
    EnergyAccumulator,
    EnergyTrace,
    curvature_field,
    energy,
    export_energy_csv,
    identity_residual,
    initial_energy,
    kinetic_integral,
    time_derivative,
)
from .bounds import (
    DamperWindow,
    DecayBound,
    EnvelopeReport,
    beta_constants,
    bound_report,
    classify_regime,
    compute_decay_bound,
    decay_estimate,
    lambda_window,
    scan_lambda,
    verify_envelopes,
)

__version__ = "0.1.0"
