"""Exception types used across the package."""


class StructuralError(ValueError):
    """Malformed input: bad shapes, bad JSON, unknown model kind."""


class NotSubharmonicError(StructuralError):
    """A projection that must be sub-harmonic is not; carries the residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class ValidationFailure(ValueError):
    """A model failed its algebraic invariants (carries the report)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CrossCheckError(RuntimeError):
    """Two independent computation routes disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge or a spectral problem is defective."""
