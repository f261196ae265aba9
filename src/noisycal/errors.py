"""Exception types raised across the library.

Every error raised on a user-facing code path derives from
:class:`NoisycalError`, so callers (and the CLI) can distinguish input or
specification problems from genuine internal failures.
"""

from __future__ import annotations

from numbers import Integral

__all__ = [
    "NoisycalError",
    "InvalidSpec",
    "SingularTransition",
    "InvalidProbability",
    "EmptyClass",
    "LengthMismatch",
    "DimensionMismatch",
    "DegenerateData",
    "InsufficientVertices",
    "SolverFailure",
    "CholeskyFailure",
    "LadderMismatch",
    "SingularM",
    "FileFormatError",
]


class NoisycalError(Exception):
    """Base class for all library errors."""


class InvalidSpec(NoisycalError):
    """A configuration or model specification violates its invariants."""


class SingularTransition(NoisycalError):
    """The transition matrix is numerically singular and cannot be inverted."""


class InvalidProbability(NoisycalError):
    """A probability row is not a valid distribution."""


class EmptyClass(NoisycalError):
    """A class has no calibration samples but the computation needs its CDF."""

    def __init__(self, label: int, message: str | None = None):
        self.label = label
        super().__init__(message or f"class {label} has no calibration samples")


class LengthMismatch(NoisycalError):
    """Two paired sequences have different lengths."""


class DimensionMismatch(NoisycalError):
    """An array has the wrong number of features or columns."""


class DegenerateData(NoisycalError):
    """Training data does not contain enough distinct classes."""


class InsufficientVertices(NoisycalError):
    """The hypercube does not have enough vertices for the requested clusters."""


class SolverFailure(NoisycalError):
    """A finite-sample branch has no certified optimum (solver failure or unbounded)."""


class CholeskyFailure(NoisycalError):
    """Covariance factorization failed even after jitter escalation."""


class LadderMismatch(NoisycalError):
    """Extrapolation step sizes do not form a halving ladder."""


class SingularM(NoisycalError):
    """The mixing matrix M in the diagnostics is numerically singular."""


class FileFormatError(NoisycalError):
    """A CSV or JSON input file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_int(name: str, value, minimum: int) -> None:
    """Raise InvalidSpec naming ``name`` unless value is an integer >= minimum.

    A bool or a float is refused even when it equals an integer: such a count
    would pass a range check here and fail later inside numpy or ``range``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidSpec(f"{name} must be >= {minimum}, got {value}")
