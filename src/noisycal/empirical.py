"""Calibration data and the inflation estimator Delta_hat.

Notation: for calibration data (X_i, Y~_i) with scores s_ik = s(X_i, k),
F_hat is the empirical CDF of the own scores s(X_i, Y~_i), F_hat_l^k the
empirical CDF of s(X_i, k) restricted to samples with Y~_i = l, and rho_hat_l
the class frequencies.  The inflation estimator is

    Delta_hat(t) = sum_k sum_l W[k, l] * rho_hat[l] * F_hat_l^k(t) - F_hat(t)
                 = (1/n) sum_i f_t(Z_i) - F_hat(t),

with f_t(Z_i) = sum_k W[k, Y~_i] 1{s_ik <= t}, the same function whose
covariance drives the asymptotic correction.  One kernel computes the mean
of f_t at any points: it sorts the nK scores once, takes the cumulative sum
of their weights W[k, Y~_i] in that order, and reads it off with a
right-sided binary search.  Delta_hat is evaluated only at the own-score
order statistics, which is all the adaptive calibration rule ever needs.

The summation order differs from the per-class definition, so the values
are not bitwise equal to a per-class reference: they agree with the
brute-force oracle within atol 1e-12, and the adaptive index i_hat built
from them equals the oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyClass, InvalidSpec, _check_label_vector, _check_type
from .noise_model import _as_w
from .scores import _require_scores

__all__ = [
    "CalibrationSet",
    "InflationCurve",
    "delta_hat",
]


@dataclass(frozen=True, eq=False)
class CalibrationSet:
    """Calibration scores with their noisy labels.

    ``CalibrationSet(scores, noisy_labels)`` takes n >= 1 rows of K scores in
    [0, 1] (checked, never clipped) and one 0-based label per row, and derives
    ``own_score[i] = scores[i, noisy_labels[i]]``.  It keeps read-only copies,
    so later writes to the caller's arrays do not reach the set.
    """

    scores: NDArray[np.float64]
    noisy_labels: NDArray[np.int64]
    own_score: NDArray[np.float64] = field(init=False)

    def __post_init__(self) -> None:
        s = _require_scores(self.scores, tol=0.0).copy()
        n, k = s.shape
        if n < 1:
            raise InvalidSpec("scores must have at least one row")
        y = _check_label_vector("noisy_labels", self.noisy_labels, k).copy()
        if y.shape != (n,):
            raise InvalidSpec(f"noisy_labels must have shape ({n},), got {y.shape}")
        own = s[np.arange(n), y]
        for arr in (s, y, own):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "noisy_labels", y)
        object.__setattr__(self, "own_score", own)

    @classmethod
    def from_scores(cls, scores, noisy_labels) -> "CalibrationSet":
        """The same as ``CalibrationSet(scores, noisy_labels)``."""
        return cls(scores=scores, noisy_labels=noisy_labels)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True, eq=False)
class InflationCurve:
    """Delta_hat evaluated at the own-score order statistics."""

    order_stats: NDArray[np.float64]
    values: NDArray[np.float64]


def _f_weights(cal: CalibrationSet, w) -> NDArray[np.float64]:
    """The n x K weights v[i, k] = W[k, Y~_i] of f_t.

    Checks cal's type, that W is a finite K x K matrix and that every class
    has a calibration sample: F_hat_l^k is undefined for an empty class l.
    """
    _check_type("cal", cal, CalibrationSet)
    w = _as_w(w, cal.k)
    k = cal.k
    empty = np.flatnonzero(np.bincount(cal.noisy_labels, minlength=k) == 0)
    if empty.size:
        raise EmptyClass(int(empty[0]))
    return w.T[cal.noisy_labels]


def _mean_f(cal: CalibrationSet, v: NDArray[np.float64], t) -> NDArray[np.float64]:
    """(1/n) sum_i f_t(Z_i) at every point t, for weights v from _f_weights."""
    order = np.argsort(cal.scores, axis=None)
    cum = np.concatenate(([0.0], np.cumsum(v.ravel()[order])))
    return cum[np.searchsorted(cal.scores.ravel()[order], t, side="right")] / cal.n


def delta_hat(cal: CalibrationSet, w) -> InflationCurve:
    """Inflation estimator at every own-score order statistic.

    ``w`` may be a TransitionMatrix or the raw K x K inverse, which must be
    finite (InvalidSpec otherwise).  F_hat(S_(i))
    is computed by counting (right-sided binary search), not as i/n, so tied
    own scores are handled exactly.  Raises EmptyClass when a class has no
    calibration sample.
    """
    v = _f_weights(cal, w)
    s = np.sort(cal.own_score)
    values = _mean_f(cal, v, s) - np.searchsorted(s, s, side="right") / cal.n
    return InflationCurve(order_stats=s, values=values)
