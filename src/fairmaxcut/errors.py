"""Exception types shared across the package."""


class FairMaxCutError(Exception):
    """Base class for library errors."""


class TooLargeError(FairMaxCutError):
    """Raised when an input is too large to enumerate or to keep in memory."""


class DegreeZeroError(FairMaxCutError):
    """Raised when a node utility model is evaluated on a graph with no edges."""


class ModelMismatchError(FairMaxCutError, ValueError):
    """Raised when a utility model is paired with the wrong partition kind."""


class InstanceParseError(FairMaxCutError, ValueError):
    """Raised on malformed instance/report/embedding files, with a location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class GeneratorParameterError(FairMaxCutError, ValueError):
    """Raised by instance generators on out-of-range parameters."""
