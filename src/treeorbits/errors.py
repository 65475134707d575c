"""Exception types shared across the package.

An ``Error`` is a fault of the input (exit code 2, or 3 for ``CapExceeded``);
a fault of the package, such as a failed self-check, raises RuntimeError.
"""


class Error(Exception):
    """Base class for all package errors."""


class EmptyInput(Error):
    """Raised when a tree has no vertices."""


class NotATree(Error):
    """Raised when the edge set is not a rooted tree directed toward a root."""


class LabelViolation(Error):
    """Raised when labels are not positive integers strictly increasing along edges."""


class UnknownVertex(Error):
    """Raised when an operation names a vertex that is not in the tree."""


class RootForbidden(Error):
    """Raised when an operation that needs a non-root vertex is given the root."""


class BadRange(Error):
    """Raised when a numeric argument is outside its documented range."""


class BoundsError(Error):
    """Raised when flag dimensions are out of bounds or not strictly increasing."""


class ParseError(Error):
    """Raised on malformed input text; carries a character position when known."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class NotPrime(Error):
    """Raised when a modulus that must be prime is not."""


class UnsupportedField(Error):
    """Raised when a finite-field order outside {2, 3, 4, 5} is requested."""


# the most bits a count is written with in digits: 4,096 bits is at most
# 1,234 digits, well inside the 4,300 digits str() gives an int
COUNT_BITS = 4096


def count_text(x: int) -> str:
    """A count for a message: its digits up to ``COUNT_BITS`` bits, above
    that the power of 2 it is at least, as ``str`` refuses an int of over
    4,300 digits."""
    return str(x) if x.bit_length() <= COUNT_BITS else f"at least 2^{x.bit_length() - 1}"


class CapExceeded(Error):
    """Raised when an enumeration would exceed the configured point cap.

    ``projected`` is the point count, or None where the variety is refused
    from its dimension alone; ``log2_bound`` is then an exponent d with the
    count at least 2^d > ``cap`` (see ``enumerate_orbits``), and None
    otherwise.  The bound is kept as its exponent, which may run to 10^17.
    """

    def __init__(self, projected: int | None, cap: int, log2_bound: int | None = None):
        need = count_text(projected) if projected is not None else f"at least 2^{log2_bound}"
        super().__init__(f"enumeration needs {need} points, cap is {count_text(cap)}")
        self.projected = projected
        self.cap = cap
        self.log2_bound = log2_bound


class NotAPencil(Error):
    """Raised when cross-ratio inputs do not sit between the given flag pair."""


class Degenerate(Error):
    """Raised when the four cross-ratio subspaces are not pairwise distinct."""
