"""Exception hierarchy shared by every module in the toolkit.

All public entry points raise subclasses of :class:`ToolkitError`, so the
CLI (and embedding applications) can catch a single type at the boundary.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(ToolkitError, ValueError):
    """A value the toolkit refuses: a NaN or inf entry, an empty or
    unordered lambda schedule, an error bound that overflows. It is also a
    ValueError, so a caller that catches ValueError still catches it."""


class NotSquare(ToolkitError):
    pass


class NotHermitian(ToolkitError):
    pass


class ConvergenceFailure(ToolkitError):
    pass


class InvalidP(ToolkitError):
    pass


class DimensionMismatch(ToolkitError):
    pass


class NegativeSupport(ToolkitError):
    pass


class ZeroVector(ToolkitError):
    pass


class DegenerateSeeds(ToolkitError):
    pass


class BadWeights(ToolkitError):
    pass


class SingularGram(ToolkitError):
    pass


class BadGrid(ToolkitError):
    pass


class BadRank(ToolkitError):
    pass


class ConfigError(ToolkitError):
    pass


class EvalError(ToolkitError):
    """A scalar function could not be evaluated at a spectral atom."""


class ExprSyntaxError(ToolkitError):
    """Malformed expression text. ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownFunction(ExprSyntaxError):
    pass


class UnknownIdentifier(ExprSyntaxError):
    pass


class ParseError(ToolkitError):
    """Malformed input file. Carries a 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
