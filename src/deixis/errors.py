"""The package's one exception type."""


class DeixisError(Exception):
    """A data error raised by this package: its message says what failed."""
