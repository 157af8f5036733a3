"""Symplectic reduction of the three-body problem in four-dimensional space.

From the 24-dimensional phase space down to the 8-dimensional reduced
Hamiltonian with two momentum parameters mu1 > mu2 >= 0, together with
trajectory integration, relative-equilibrium solvers, Hessian stability
analysis and energy-momentum diagram generation.
"""

from .errors import (
    ChartSingular,
    CollisionError,
    DegenerateHessian,
    DegenerateMomenta,
    DegeneratePlane,
    DomainError,
    KineticDomainError,
    NoConvergence,
    NoRealMomenta,
    SolverFailure,
    StepLimitExceeded,
    StepSizeUnderflow,
)
from .model import (
    AngularMomentum,
    FullState,
    MassTriple,
    ScalarProducts,
    angular_momentum,
    hamiltonian_full,
    jacobi_from_positions,
)
from .reduction import (
    PartialState,
    ReducedState,
    RotationAngles,
    embed_reduced,
    hamiltonian_partial,
    hamiltonian_reduced,
    invariant_set_residual,
    kinetic_f,
    lift_to_full,
    project_to_partial,
    restriction_matrix_A,
)
from .dynamics import (
    IntegratorConfig,
    TrajectoryRecord,
    VectorField,
    compare_full_vs_reduced,
    full_field,
    gradient_reduced,
    integrate,
    partial_field,
    reduced_field,
)
from .equilibria import (
    EquilibriumReport,
    effective_potential,
    frequencies,
    general_scan,
    general_series_equilibrium,
    isosceles_equilibrium,
    isosceles_hessian_blocks,
    isosceles_scan,
    keff_correction,
    newton_equilibrium,
    region_classification,
    solvability_residual,
    stability_polynomials,
)

__version__ = "0.1.0"
