"""Exception and warning types shared across the package, and the config dataclasses' integer checks."""

from numbers import Integral


class RgaeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(RgaeError):
    """Operands have incompatible dimensions."""


class NonSymmetric(RgaeError):
    """A stored edge lacks its mirror entry."""


class IndexOutOfRange(RgaeError):
    """Malformed CSR structure or an index outside the node range."""


class SingleView(RgaeError):
    """An operation needing several views got fewer than two."""


class EmptyView(RgaeError):
    """A view contains no edges."""


class FileError(RgaeError):
    """A file could not be read or written."""


class ParseError(RgaeError):
    """A text input line could not be parsed; the message carries the location."""


class TapeError(RgaeError):
    """A tape was asked to record a second loss, or to run backward() from a node that is not its loss."""


class NumericalOverflow(RgaeError):
    """A non-finite value appeared during computation."""


class NegativeEmbedding(RgaeError):
    """An encoder output entry below 0 reached the decoder, which needs every logit to be at least 0."""


class DegenerateWeights(RgaeError):
    """View weights collapsed to an unusable (all-zero) combination."""


class InvalidGamma(RgaeError):
    """The weight-distribution exponent must be finite, positive and different from 1."""


class ConfigError(RgaeError):
    """Invalid configuration value or combination."""


class LengthMismatch(RgaeError):
    """Two aligned sequences have different lengths."""


class InsufficientNodes(RgaeError):
    """Not enough nodes or node pairs to satisfy the request."""


class DegenerateClass(UserWarning):
    """A class had no training examples and was skipped."""


class ZeroVector(UserWarning):
    """A zero-norm embedding row made the cosine undefined; the feature was set to 0."""


def require_int(name: str, value, low: int) -> None:
    """ConfigError unless value is a Python or numpy integer, not a bool, of at least low."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")


def require_ints(name: str, values, low: int) -> None:
    """ConfigError unless values is an iterable of integers that each pass require_int."""
    try:
        items = list(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence of integers of at least {low}, got {values!r}") from None
    for value in items:
        require_int(name, value, low)
