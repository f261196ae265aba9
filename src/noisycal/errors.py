"""Exception types raised across the library.

Every error raised on a user-facing code path derives from
:class:`NoisycalError`, so callers (and the CLI) can distinguish input or
specification problems from genuine internal failures.
"""

from __future__ import annotations

import math
import os
from numbers import Integral, Real

import numpy as np
from numpy.typing import NDArray

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
    """The transition matrix's condition number exceeds 1e12."""


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
    """The asymptotic covariance is not PSD up to rounding, or eigh failed on it."""


class LadderMismatch(NoisycalError):
    """Extrapolation step sizes do not form a halving ladder."""


class SingularM(NoisycalError):
    """The mixing matrix M in the diagnostics is numerically singular."""


class FileFormatError(NoisycalError):
    """A CSV or JSON input file failed to parse or validate, or an output
    file or directory could not be written."""

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


# the largest calibration size n: c(n), its envelope sqrt(pi / (2n)), the
# bound's log(K n + 1) and 2 / sqrt(n), and the diagnostics' n^(1/4), 2/n and
# log(2n) all stay finite and positive up to it; past ~9e307, 2n overflows a
# float and c(n) would come out as -0.0
_N_MAX = 10**300


def _check_n(n) -> None:
    """Raise InvalidSpec unless the calibration size n is an integer in [1, 10**300]."""
    _check_int("n", n, 1)
    if n > _N_MAX:
        raise InvalidSpec(f"n must be at most 10**300, got {n}")


def _check_real(name: str, value, low=-math.inf, high=math.inf, ends="[]") -> None:
    """Raise InvalidSpec naming ``name`` unless value is a finite real in range.

    The range runs from ``low`` to ``high``; ``ends`` says which ends it
    includes, as in "[)" for [low, high).  A bool is refused like a string:
    True would otherwise pass as 1.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidSpec(f"{name} must be a real number, got {value!r}")
    # an int is finite however large, and too large for math.isfinite
    if not (isinstance(value, Integral) or math.isfinite(value)):
        raise InvalidSpec(f"{name} must be finite, got {value}")
    above = value > low if ends[0] == "(" else value >= low
    below = value < high if ends[1] == ")" else value <= high
    if not (above and below):
        interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
        raise InvalidSpec(f"{name} must lie in {interval}, got {value}")


def _check_alpha(alpha) -> None:
    """Raise InvalidSpec unless the miscoverage level alpha is a real in (0, 1)."""
    _check_real("alpha", alpha, 0.0, 1.0, "()")


def _check_type(name: str, value, cls: type) -> None:
    """Raise InvalidSpec naming ``name`` unless value is an instance of cls."""
    if not isinstance(value, cls):
        got = type(value).__name__
        raise InvalidSpec(f"{name} must be a {cls.__name__}, got {got}")


def _check_path(name: str, value) -> None:
    """Raise InvalidSpec naming ``name`` unless value is a str or os.PathLike.

    ``open`` would take an int as a file descriptor, read or write it and
    close it, so an int is refused with every other type.
    """
    if not isinstance(value, (str, os.PathLike)):
        got = type(value).__name__
        raise InvalidSpec(f"{name} must be a str or os.PathLike, got {got}")


def _check_array(name: str, value, dtype=np.float64, ndim=None, finite=True) -> NDArray:
    """``value`` as an array of ``dtype`` (its own dtype when None).  InvalidSpec
    names ``name`` when value is ragged, holds no numbers (a str, None, a dict),
    has other than ``ndim`` dimensions or, when ``finite``, a float entry that
    is not finite; the message then names the first such entry."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"{name} must be a real array: {exc}") from None
    if dtype is not None and a.dtype.kind not in "biuf":
        raise InvalidSpec(f"{name} must be a real array, got {type(value).__name__}")
    if ndim is not None and a.ndim != ndim:
        raise InvalidSpec(f"{name} must be a {ndim}-d array, got shape {a.shape}")
    if dtype is None:
        return a
    a = a.astype(dtype, copy=False)
    if finite and a.dtype.kind == "f" and not np.isfinite(a).all():
        i = int(np.argmax(~np.isfinite(a)))
        at = "row %d, column %d" % divmod(i, a.shape[1]) if a.ndim == 2 else f"entry {i}"
        raise InvalidSpec(f"{name} entries must be finite; {at} (0-based) is {a.flat[i]}")
    return a


def _check_label_vector(name: str, labels, k: int | None = None) -> NDArray[np.int64]:
    """A vector of 0-based integer labels in [0, k), as int64.

    ``k`` defaults to one more than the largest label.  Length and shape
    against other arrays stay with the caller, which raises its own error.
    """
    y = _check_array(name, labels, None, ndim=1)
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidSpec(f"{name} must be integers, got dtype {y.dtype}")
    if k is None:
        k = int(y.max(initial=0)) + 1
    bad = (y < 0) | (y >= k)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidSpec(
            f"{name} must lie in [0, {k - 1}]; row {i} (0-based) is {y[i]}, outside it"
        )
    return y.astype(np.int64, copy=False)


def _check_square(name: str, matrix, k: int | None = None) -> NDArray[np.float64]:
    """A finite K x K matrix as a float array; K must equal ``k`` when given."""
    a = _check_array(name, matrix)
    square = a.ndim == 2 and a.shape[0] == a.shape[1] and a.size > 0
    if not square or (k is not None and a.shape[0] != k):
        want = "a nonempty square matrix" if k is None else f"{k} x {k}"
        raise InvalidSpec(f"{name} must be {want}, got shape {a.shape}")
    return a
