"""The error type for input that fails validation."""


class UsageError(ValueError):
    """Bad input, such as an argument out of range: the CLI exits 2 on
    it, and 1 on every other error."""
