"""The package's one exception type."""


class DeixisError(Exception):
    """Bad data, or a computation that failed on valid input; a refused
    argument raises `ValueError` instead.  The message says what failed."""
