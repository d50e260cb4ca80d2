"""Shared exception types."""

# Python's default limit on str to int conversion; every size bound of the
# package is far below a number this long
MAX_DIGITS = 4300


class GraphParseError(ValueError):
    """Raised when graph text does not match the input grammar."""


class SizeLimitError(ValueError):
    """Raised when an input exceeds a documented size bound."""


class DigitLimitError(GraphParseError, SizeLimitError):
    """Raised, with the position, for a number in input text that has more
    than MAX_DIGITS digits: refused before int() like any size limit."""
