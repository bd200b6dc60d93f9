"""Exception types shared across the package."""


class AfcSimError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(AfcSimError):
    """Raised when an operation needs two distinct points but got equal ones."""


class UnsupportedBandwidth(AfcSimError):
    """Raised for a bandwidth outside the supported channelization."""


class NoFixAvailable(AfcSimError):
    """Raised when an operation requires a position fix the AP does not have."""


class InsufficientGroup(AfcSimError):
    """Raised when a group consistency check has fewer than two members."""


class ScenarioParseError(AfcSimError):
    """Raised for malformed scenario or configuration documents."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ScenarioValidationError(AfcSimError):
    """Raised when a parsed scenario violates a structural invariant."""
