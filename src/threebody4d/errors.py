"""Exception types shared across the package.

Two base classes decide how a failure is handled.  Every `SolverFailure`
ends the CLI with exit code 3; a `DomainError` is the subset that leaves
the domain of a vector field, which an integration reports as its domain
exit rather than raising.  Any other `ValueError` is invalid input.
"""


class SolverFailure(Exception):
    """A computation failed on valid input (the CLI exits 3)."""


class DomainError(SolverFailure, ValueError):
    """The point lies outside a field's domain (an integration ends as a domain exit)."""


class CollisionError(DomainError):
    """A squared mutual distance fell below the collision tolerance."""


class ChartSingular(DomainError):
    """The local rotation chart is singular at the requested point.

    Raised when the oriented area A vanishes or when cos(2*psi1) equals
    cos(2*psi2), where the coordinate change cannot be inverted.
    """


class DegeneratePlane(ChartSingular):
    """x1 and x2 do not span a 2-plane (oriented area A = 0)."""


class KineticDomainError(DomainError):
    """L3^2 exceeds Delta^2 or Sigma^2, so the kinetic roots turn complex."""


class DegenerateMomenta(ValueError):
    """mu1 == mu2 (or |mu1| == |mu2|), where the restricted form degenerates."""


class NoRealMomenta(SolverFailure, ValueError):
    """The equilibrium conditions give a non-positive mu_i^2."""


class NoConvergence(SolverFailure, RuntimeError):
    """An iterative solver ran out of iterations."""


class DegenerateHessian(SolverFailure, RuntimeError):
    """A Hessian whose definiteness is needed is not finite or has |det| below tolerance."""


class StepSizeUnderflow(SolverFailure, RuntimeError):
    """Adaptive step control collapsed: a non-finite error estimate, or a
    rejected step shrank below 1e-14 * max(1, |t|)."""


class StepLimitExceeded(SolverFailure, RuntimeError):
    """An integration needed more steps than `IntegratorConfig.max_steps`."""
