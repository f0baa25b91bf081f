"""Exception types shared across the package."""


class LevySdeError(Exception):
    """Base class for all package-specific errors."""


class QuadratureError(LevySdeError):
    """A quadrature rule failed its embedded error test.

    ``residual`` is the rule's error estimate and ``tolerance`` the bound it
    exceeded; ``magnitude`` is the frequency ``|xi|`` that failed, when the
    integral depends on one.
    """

    def __init__(self, message, residual=None, magnitude=None, tolerance=None):
        super().__init__(message)
        self.residual = residual
        self.magnitude = magnitude
        self.tolerance = tolerance


class EllipticityError(LevySdeError):
    """A symbol is not elliptic, or not sectorial, where that was required.

    ``point`` holds the offending stored lattice indices (x-axes, then
    xi-axes) when one is known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ContractionError(LevySdeError):
    """A fixed-point iteration failed to contract."""

    def __init__(self, message, contraction_estimate=None):
        super().__init__(message)
        self.contraction_estimate = contraction_estimate


class SpectralDistanceError(LevySdeError):
    """A resolvent shift is too close to the symbol range.

    ``point`` holds the lattice location where the distance is attained.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConfigError(LevySdeError, ValueError):
    """A setting was refused: an experiment configuration field, a constructor
    argument or an environment variable.

    ``field`` names the offending setting when known: the configuration key,
    or the argument name when a constructor refuses it.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
