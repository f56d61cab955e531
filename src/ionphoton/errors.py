"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class QuadratureError(RuntimeError):
    """A numerical integral or root search failed to reach the requested accuracy."""


class StreamFormatError(ValidationError):
    """A click-stream file is malformed; the message carries the offending position."""


class InsufficientDataError(RuntimeError):
    """An analysis has no events to normalize against."""


class ConditioningError(RuntimeError):
    """Conditioning was requested on a detector branch with zero probability."""


class EstimationError(RuntimeError):
    """A fit is degenerate or a required measurement setting is missing."""
