"""Exception types shared across the package.

Numerical failures are raised as exceptions; qualitative findings
(instability, blow-up, tube exit) are reported in result records and
never raised.
"""


class KgError(Exception):
    """Base class for all package errors."""


class NoConvergence(KgError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DegenerateHessian(KgError):
    """Hessian of the effective potential is singular at the critical point."""


class GridTooSmall(KgError):
    """Domain cannot hold the solution: boundary decay check failed."""


class LostPositivity(KgError):
    """Continuation left the positive branch."""


class SingularOperator(KgError):
    """Linear solve hit a (numerically) singular operator."""


class EigSolverFailure(KgError):
    """Eigenvalue iteration did not converge."""


class UnstableStep(KgError):
    """Requested time step is unusable: above the integrator's stability
    bound, or longer than the whole run."""


class SkippedError(KgError):
    """An analysis did not run because an input it needs is missing."""


class SchemaError(KgError):
    """Scenario file failed validation. `path` is a JSON pointer."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message

    def __reduce__(self):
        # a sweep worker's error reaches the main process by pickle,
        # which would call __init__ with self.args: one formatted message
        return type(self), (self.path, self.reason)


class ModeConflict(SchemaError):
    """Scenario supplies fields that contradict the declared mode."""
