"""Shared exception types, and the one way an input is refused for its size.

Flag vectors are indexed by 2^n words and p(n) partitions, so every entry
point has a documented bound, and refuses input beyond it before any work:
a bound is checked by `check_size`, a number in input text is read by
`read_number`, and no graph has more than MAX_GRAPH_N vertices, which
`Graph`, `OptionalGraph` and `parse_graph` check where a graph is made.
"""

# Python's default limit on str to int conversion; every size bound of the
# package is far below a number this long
MAX_DIGITS = 4300
MAX_GRAPH_N = 4096


class GraphParseError(ValueError):
    """Raised when graph text does not match the input grammar."""


class SizeLimitError(ValueError):
    """Raised when an input exceeds a documented size bound."""


class DigitLimitError(GraphParseError, SizeLimitError):
    """Raised, with the position, for a number in input text that has more
    than MAX_DIGITS digits: refused before int() like any size limit."""


def check_size(value: int, bound: int, operation: str, quantity: str = "n") -> None:
    """Refuse `value` above `bound` with SizeLimitError naming the
    operation, the quantity, the bound and the value."""
    if value > bound:
        raise SizeLimitError(f"{operation} supports {quantity} <= {bound}, got {value}")


def read_number(text: str, position: int, what: str) -> int | None:
    """The value of `text` if it is ASCII digits, else None.  More than
    MAX_DIGITS digits are refused with DigitLimitError at `position`, the
    number's place in the caller's text, before int() is called."""
    # int() alone would also read "٣" and "1_0", str.isdigit "²"
    if not (text.isascii() and text.isdigit()):
        return None
    if len(text) > MAX_DIGITS:
        raise DigitLimitError(
            f"{what} of {len(text)} digits at position {position} (at most {MAX_DIGITS})"
        )
    return int(text)
