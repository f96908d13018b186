"""Shared exception types."""


class ParseError(ValueError):
    """Syntax error in a polynomial or space-expression text, with position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class CapExceededError(RuntimeError):
    """An exhaustive enumeration was refused because it exceeds the cap."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not; fatal internal failure."""


class MissingInclusionError(ValueError):
    """A complement was evaluated without a recognized closed inclusion."""


class MissingBasePolynomialError(ValueError):
    """A factor's space has no registered base polynomial."""
