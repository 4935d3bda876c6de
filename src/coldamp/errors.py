"""Numerical failure type, kept free of numpy so the CLI can catch it cheaply."""


class NetworkSolveError(RuntimeError):
    """Raised when the network matrix is singular at some frequency."""

    def __init__(self, message: str, omega: float):
        super().__init__(message)
        self.omega = omega
