"""Exception types shared across the package.

The CLI maps these onto exit codes: parse problems exit 2, domain and
degenerate-data problems exit 3, anything else exit 1.
"""


class EccError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(EccError):
    """Curves or samples that should share a grid do not."""


class ParseError(EccError):
    """A curve file or config file could not be parsed."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class EmptyInputError(ParseError):
    """An input file contained no data rows."""


class DomainError(EccError, ValueError):
    """A parameter is outside its valid domain or range."""


class DegenerateTailError(EccError):
    """Tail estimation is impossible: no variation among the top order statistics."""


class DegenerateSampleError(EccError):
    """An estimator's denominator vanished (e.g. fewer than k nonzero pairs)."""
