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
