"""Staggered-grid incremental projection solver for incompressible flow.

The package builds marker-and-cell finite volumes on non-uniform rectangular
grids, assembles the discrete divergence, gradient, diffusion, and skew
convection operators, integrates the momentum/pressure-correction pair, and
ships a verification harness that asserts the structural identities the
discretization is designed around: exact gradient/divergence duality,
convection skew-symmetry, a per-step kinetic energy inequality, divergence
bounds after the pressure correction, and time-translate estimates on the
resulting trajectories.
"""

from .config import ConfigError, RunConfig, parse_config
from .fields import (
    PressureField,
    Trajectory,
    VelocityField,
    face_average,
    l2_norm,
    pressure_inner,
    velocity_inner,
    w1q_norm,
)
from .grid import MacGrid, graded_axis, midpoint_refined, uniform_axis, uniform_grid
from .linalg import SolveResult, SolverError
from .mms import PROBLEM_NAMES, ManufacturedProblem, mms_problem
from .operators import Operators
from .projection import Projector, dense_divfree_basis, seminorm_by_basis
from .scheme import DIAGNOSTIC_COLUMNS, ProjectionScheme, SchemeError, StepDiagnostics
from .verify import (
    PropertyReport,
    StudyReport,
    convergence_study,
    coupling_study,
    property_suite,
    random_pressure,
    random_velocity,
    summed_step_increments,
    translate_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "PressureField",
    "Trajectory",
    "VelocityField",
    "face_average",
    "l2_norm",
    "pressure_inner",
    "velocity_inner",
    "w1q_norm",
    "MacGrid",
    "graded_axis",
    "midpoint_refined",
    "uniform_axis",
    "uniform_grid",
    "SolveResult",
    "SolverError",
    "PROBLEM_NAMES",
    "ManufacturedProblem",
    "mms_problem",
    "Operators",
    "Projector",
    "dense_divfree_basis",
    "seminorm_by_basis",
    "DIAGNOSTIC_COLUMNS",
    "ProjectionScheme",
    "SchemeError",
    "StepDiagnostics",
    "PropertyReport",
    "StudyReport",
    "convergence_study",
    "coupling_study",
    "property_suite",
    "random_pressure",
    "random_velocity",
    "summed_step_increments",
    "translate_diagnostic",
    "__version__",
]
