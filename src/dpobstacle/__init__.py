"""Obstacle problems for two-phase nonlinear diffusion.

A finite-element laboratory for unilateral obstacle problems driven by a
two-exponent (double-phase) diffusion operator, a multivalued reaction
selected from a catalog, and a nonsmooth boundary potential with generalized
gradients.  Constrained problems are approximated by vanishing penalization
(the gradient of the constraint set's lumped Moreau–Yosida envelope, zero
where the obstacle is ``+inf``), solved by damped semismooth Newton with a
fixed-point fallback, and studied along a decreasing parameter schedule:
solution sets are sampled multi-start, set convergence is diagnosed by chains
and nearest-point traces, limits are certified against the variational
inequality on documented probe sets, and the standing growth/smallness
assumptions are checked numerically.

Subpackage map: :mod:`~dpobstacle.meshing` (1D/2D P1 meshes and boundary
partitions), :mod:`~dpobstacle.musielak` (modular and Luxemburg norms),
:mod:`~dpobstacle.catalog` (reaction and boundary-potential entries with
declared growth constants), :mod:`~dpobstacle.assembly` (residuals and
Jacobians), :mod:`~dpobstacle.nonsmooth` (constraint set, projection,
envelope), :mod:`~dpobstacle.solver` (Newton with continuation),
:mod:`~dpobstacle.lab` (set-convergence studies, reference oracle,
hypothesis checks), :mod:`~dpobstacle.config` / :mod:`~dpobstacle.cli`
(experiment files and the command line).
"""

from .assembly import (
    AssembledSystem,
    ProblemSpec,
    apply_operator,
    assemble_system,
    boundary_term,
    clarke_directional,
    operator_energy,
    operator_jacobian,
    operator_residual,
    reaction_term,
)
from .catalog import (
    BOUNDARY_NAMES,
    REACTION_NAMES,
    SELECTION_RULES,
    BoundaryGrowth,
    BoundaryPotentialSpec,
    GrowthConstants,
    ReactionSpec,
    boundary_potential,
    reaction,
)
from .config import (
    ExperimentConfig,
    build_mesh,
    build_problem,
    build_schedule,
    build_solver_config,
    load_config,
    parse_config_text,
    study_parameters,
)
from .errors import (
    ConfigFileError,
    ConfigurationError,
    EmptySampleError,
    EvaluationError,
    OracleFailure,
)
from .expressions import Expression, compile_expression
from .lab import (
    HypothesisReport,
    KuratowskiDiagnostics,
    LimitCandidate,
    QPSolution,
    SampleMember,
    SolutionSample,
    kuratowski_study,
    nearest_point_trace,
    qp_oracle,
    validate_hypotheses,
)
from .meshing import (
    GAMMA1,
    GAMMA2,
    BoundaryPartition,
    DiscreteFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
)
from .musielak import (
    ModularValue,
    PhaseConfig,
    luxemburg_norm,
    modular,
    sobolev_norm,
    weighted_seminorm,
)
from .nonsmooth import ConstraintSet
from .solver import (
    SolveReport,
    SolverConfig,
    TraceEntry,
    continuation,
    residual_norm,
    solve_penalized,
    vi_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BOUNDARY_NAMES",
    "BoundaryGrowth",
    "BoundaryPartition",
    "BoundaryPotentialSpec",
    "ConfigFileError",
    "ConfigurationError",
    "ConstraintSet",
    "DiscreteFunction",
    "EmptySampleError",
    "EvaluationError",
    "ExperimentConfig",
    "Expression",
    "GAMMA1",
    "GAMMA2",
    "GrowthConstants",
    "HypothesisReport",
    "KuratowskiDiagnostics",
    "LimitCandidate",
    "Mesh",
    "ModularValue",
    "OracleFailure",
    "PhaseConfig",
    "ProblemSpec",
    "QPSolution",
    "REACTION_NAMES",
    "ReactionSpec",
    "SELECTION_RULES",
    "SampleMember",
    "SolutionSample",
    "SolveReport",
    "SolverConfig",
    "TraceEntry",
    "apply_operator",
    "assemble_system",
    "boundary_potential",
    "boundary_term",
    "build_interval_mesh",
    "build_mesh",
    "build_problem",
    "build_rect_mesh",
    "build_schedule",
    "build_solver_config",
    "clarke_directional",
    "compile_expression",
    "continuation",
    "kuratowski_study",
    "load_config",
    "luxemburg_norm",
    "modular",
    "nearest_point_trace",
    "operator_energy",
    "operator_jacobian",
    "operator_residual",
    "parse_config_text",
    "qp_oracle",
    "reaction",
    "reaction_term",
    "residual_norm",
    "sobolev_norm",
    "solve_penalized",
    "study_parameters",
    "validate_hypotheses",
    "vi_residual",
    "weighted_seminorm",
]
