"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 2, every other SglapError
-> 3; oracle-verification failures exit 4 without raising.
"""


class SglapError(Exception):
    """Base class for all package errors."""


class UsageError(SglapError):
    """Malformed CLI input (seed grammar, ranges, flag combinations)."""


class DomainError(SglapError):
    """Input outside the mathematical domain of an operation."""


class SingularLevelError(DomainError):
    """An eigenvalue sequence hit 2, 5 or 6 past its starting level.

    The extension matrices are undefined (2, 5) or the eigenspace bifurcates (6)
    at these values; the message names the offending level and value.
    """

    def __init__(self, level: int, value: float):
        super().__init__(f"eigenvalue sequence is singular at level {level}: "
                         f"lambda_{level} = {value!r} lies in {{2, 5, 6}}")


class LevelCapError(SglapError):
    """Requested refinement level exceeds the configured cap."""


class InvariantError(SglapError):
    """A count the construction guarantees came out wrong: a bug, not bad input."""
