"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI:
  2 -> SmcfValidationError   (bad config / precondition violations)
  3 -> SmcfNumericalError    (blowup, divergence, no convergence)
  4 -> SmcfConstraintError   (integrability / frame / reconstruction audits)
"""


class SmcfError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class SmcfValidationError(SmcfError):
    exit_code = 2


class GridMismatchError(SmcfValidationError):
    pass


class ValenceMismatchError(SmcfValidationError):
    pass


class ImmersionDegeneracyError(SmcfValidationError):
    """Induced metric is not positive definite."""


class FrameNotNormalError(SmcfValidationError):
    pass


class TransversalityError(SmcfValidationError):
    """No constant vector is uniformly transversal to the tangent planes."""


class SmcfNumericalError(SmcfError):
    exit_code = 3


class ContractionFailureError(SmcfNumericalError):
    """Fixed-point residual grew over three consecutive sweeps."""


class NoConvergenceError(SmcfNumericalError):
    pass


class BlowupError(SmcfNumericalError):
    def __init__(self, msg, t=None):
        super().__init__(msg)
        self.t = t


class StepRejectedError(SmcfNumericalError):
    """Parabolic step produced a degenerate metric."""


class IterationDivergenceError(SmcfNumericalError):
    pass


class SmcfConstraintError(SmcfError):
    exit_code = 4


class IntegrabilityError(SmcfConstraintError):
    """Holonomy mismatch of the spatial frame transport is too large."""


class FrameDriftError(SmcfConstraintError):
    pass


class ReconstructionInconsistencyError(SmcfConstraintError):
    pass
