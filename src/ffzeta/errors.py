"""Exception hierarchy shared by all ffzeta modules.

Domain errors (bad inputs, divergent series, malformed indices) and
resource errors (enumeration and tower budgets, hunter margins) map to
distinct CLI exit codes, so they stay distinct classes here.
"""


class FFZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FFZetaError):
    """Invalid input or an operation outside its mathematical domain."""

    exit_code = 2


class InvalidIndexError(DomainError):
    """Index tuple with non-positive entries, or mismatched shapes."""


class ConvergenceError(DomainError):
    """Series evaluation requested at a point where it diverges."""


class ResourceError(FFZetaError):
    """A configured budget or margin was exceeded."""

    exit_code = 3


class BudgetError(ResourceError):
    """The enumeration or the tower budget exceeded (names the budget)."""


class MarginError(ResourceError):
    """Relation hunter refused: not enough digits for the margin rule."""


class ResolutionError(ResourceError):
    """Truncation orders (t-degree / precision) too small to resolve a value."""
