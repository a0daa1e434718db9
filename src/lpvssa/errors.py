"""The exception type shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""
