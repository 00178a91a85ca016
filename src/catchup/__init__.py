"""Catching-up solver for constrained monotone dynamics.

The state follows a field with a maximal monotone part inside a closed
convex set; each step predicts along a selection of the field and corrects
with an approximate projection back onto the set.  The package keeps every
quantitative certificate of that construction checkable at runtime:
geometry (projections, cones, Moreau splits), operators (set-valued parts
and their selections), the stepping scheme with its per-step contracts,
model presets, and the diagnostics that verify energy, feasibility, and
stability bounds on finished runs.
"""

from .geometry import (
    Ball,
    Box,
    ConvexSet,
    ExactProjection,
    GeometryError,
    Halfline,
    Halfspace,
    Intersection,
    IterativeProjection,
    NonnegOrthant,
    PerturbedProjection,
    ProjectionError,
    approx_project,
    in_approx_normal_cone,
    moreau_decompose,
    set_from_config,
)
from .operators import (
    AffineField,
    LinearPart,
    MinimalNorm,
    MonotoneModel,
    Randomized,
    SeparableL1,
    SignConvention,
    ZeroPart,
    model_from_config,
    select_F,
)
from .scheme import (
    DiscreteRun,
    ExplicitErrors,
    ExplicitSteps,
    Polynomial,
    PowerOfStep,
    SchemeError,
    StepSchedule,
    Uniform,
    ZeroError,
    make_schedule,
    read_run_csv,
    run,
    step,
    verify_run_invariants,
)
from .models import (
    DryFrictionModel,
    OneDimModel,
    equilibrium_residual,
    named_model_from_config,
    reference_solution,
)
from .diagnostics import (
    certificate_table,
    check_beta_domination,
    check_discrete_energy,
    continuous_energy_bound,
    corrector_stability_check,
    defect_summability,
    local_truncation,
    predictor_feasibility,
    stability_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Ball", "Box", "ConvexSet", "ExactProjection", "GeometryError",
    "Halfline", "Halfspace", "Intersection", "IterativeProjection",
    "NonnegOrthant", "PerturbedProjection", "ProjectionError",
    "approx_project", "in_approx_normal_cone", "moreau_decompose",
    "set_from_config",
    # operators
    "AffineField", "LinearPart", "MinimalNorm", "MonotoneModel",
    "Randomized", "SeparableL1", "SignConvention", "ZeroPart",
    "model_from_config", "select_F",
    # scheme
    "DiscreteRun", "ExplicitErrors", "ExplicitSteps", "Polynomial",
    "PowerOfStep", "SchemeError", "StepSchedule", "Uniform", "ZeroError",
    "make_schedule", "read_run_csv", "run", "step", "verify_run_invariants",
    # models
    "DryFrictionModel", "OneDimModel", "equilibrium_residual",
    "named_model_from_config", "reference_solution",
    # diagnostics
    "certificate_table", "check_beta_domination", "check_discrete_energy",
    "continuous_energy_bound", "corrector_stability_check",
    "defect_summability", "local_truncation", "predictor_feasibility",
    "stability_experiment",
]
