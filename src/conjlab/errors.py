"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller violated a precondition (bad encoding, model mismatch, ...)."""


class ResourceBudgetError(RuntimeError):
    """A search exceeded its node budget.

    `partial_count` holds how many nodes were visited before giving up.
    """

    def __init__(self, message, partial_count=0):
        super().__init__(message)
        self.partial_count = partial_count


class InternalConsistencyError(RuntimeError):
    """Two independent computation paths disagreed; indicates a bug."""
