"""Exception types shared across the package."""


class OAForgeError(Exception):
    """Base class for package-specific failures."""


class ParseError(OAForgeError):
    """Malformed array/DM file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)


class BudgetExceededError(OAForgeError):
    """An enumeration or search exceeded its operation/node budget."""


class SizeCapError(BudgetExceededError, ValueError):
    """An input would build more than a fixed size cap allows; raised before
    anything is built.  Also a ValueError, the type these caps raised first."""


class VerificationError(OAForgeError):
    """A constructed artifact failed its mandatory self-verification.

    Carries the offending report (when available) in .report.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ConstraintError(OAForgeError, ValueError):
    """Parameters outside their stated range: recipe constraints, strengths,
    group names.  Also a ValueError, the type callers have always caught."""


class DMUnavailableError(OAForgeError):
    """No built-in construction or search covers the requested difference
    matrix; a file import is the remaining option."""
