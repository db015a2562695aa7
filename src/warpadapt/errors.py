"""Shared exception types."""


class ShapeError(ValueError):
    """Tensor extents violate an operation's shape rule."""


class UsageError(ValueError):
    """An operation was called in a way its contract forbids."""


class ConfigError(ValueError):
    """A configuration value is out of its legal range."""


class FormatError(ValueError):
    """A binary file does not match the expected on-disk format."""


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. empty valid set)."""


class NonFiniteError(ArithmeticError):
    """A training loss or gradient became NaN or infinite."""
