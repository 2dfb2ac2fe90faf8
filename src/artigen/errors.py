"""Exception types shared across the package."""


class ArtigenError(Exception):
    """Base class for all artigen errors."""


class InvalidParameterError(ArtigenError):
    """An operation or node received parameters outside its contract."""


class DegeneracyError(ArtigenError):
    """Geometry too degenerate to process (coplanar hull input, zero-area triangle)."""


class PortTypeError(ArtigenError):
    """A connection was attempted between incompatible port types."""


class MissingParameterError(ArtigenError):
    """A referenced parameter is absent from the parameter vector."""


class RangeError(ArtigenError):
    """A value lies outside its declared range (parameter bounds or joint limits)."""


class EvaluationError(ArtigenError):
    """Graph evaluation failed (e.g. division by zero in a math node)."""


class SchemaError(ArtigenError):
    """Unknown schema version, node kind, or document key."""


class DocumentParseError(ArtigenError):
    """Malformed graph document. Carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class StructuralError(ArtigenError):
    """A kinematic structure is not a tree (cycle, dangling reference, two parents)."""


class PlanTooLargeError(ArtigenError):
    """A sweep plan expands past the configuration cap; use a random strategy."""
