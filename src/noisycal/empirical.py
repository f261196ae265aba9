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

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyClass, InvalidSpec
from .noise_model import _as_w
from .scores import _require_scores

__all__ = [
    "CalibrationSet",
    "InflationCurve",
    "delta_hat",
]


def _require_labels(labels, shape: tuple[int, int]) -> NDArray[np.int64]:
    """Noisy labels checked against an n x K score shape (n >= 1)."""
    n, k = shape
    y = np.asarray(labels)
    if n < 1:
        raise InvalidSpec("scores must have at least one row")
    if y.shape != (n,):
        raise InvalidSpec(f"noisy_labels must have shape ({n},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidSpec(f"noisy_labels must be integers, got dtype {y.dtype}")
    if y.min() < 0 or y.max() >= k:
        raise InvalidSpec(f"labels must lie in [0, {k - 1}] (0-based)")
    return y.astype(np.int64, copy=False)


@dataclass(frozen=True)
class CalibrationSet:
    """Calibration scores with their noisy labels.

    Scores must lie in [0, 1]; they are checked, never clipped, so
    ``own_score[i]`` must equal ``scores[i, noisy_labels[i]]`` exactly.
    The set keeps read-only copies of all three arrays, so the caller's
    arrays stay writable and later writes to them do not reach the set.
    """

    scores: NDArray[np.float64]
    noisy_labels: NDArray[np.int64]
    own_score: NDArray[np.float64]

    def __post_init__(self) -> None:
        s = _require_scores(self.scores, tol=0.0).copy()
        y = _require_labels(self.noisy_labels, s.shape).copy()
        own = np.array(self.own_score, dtype=np.float64)
        if own.shape != y.shape:
            raise InvalidSpec("own_score must have length n")
        if not np.array_equal(s[np.arange(s.shape[0]), y], own):
            raise InvalidSpec("own_score[i] must equal scores[i, noisy_labels[i]]")
        for arr in (s, y, own):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "noisy_labels", y)
        object.__setattr__(self, "own_score", own)

    @classmethod
    def from_scores(cls, scores, noisy_labels) -> "CalibrationSet":
        """Build from an n x K score array plus 0-based integer labels.

        Scores that are not a 2-d array in [0, 1], and labels that are not
        integers in [0, K) with one per row, raise InvalidSpec.
        """
        s = _require_scores(scores, tol=0.0)
        y = _require_labels(noisy_labels, s.shape)
        return cls(scores=s, noisy_labels=y, own_score=s[np.arange(s.shape[0]), y])

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class InflationCurve:
    """Delta_hat evaluated at the own-score order statistics."""

    order_stats: NDArray[np.float64]
    values: NDArray[np.float64]


def _f_weights(cal: CalibrationSet, w) -> NDArray[np.float64]:
    """The n x K weights v[i, k] = W[k, Y~_i] of f_t.

    Checks that W is K x K and that every class has a calibration sample:
    F_hat_l^k is undefined for an empty class l.
    """
    w = _as_w(w)
    k = cal.k
    if w.shape != (k, k):
        raise InvalidSpec(f"W has shape {w.shape}, expected {(k, k)}")
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

    ``w`` may be a TransitionMatrix or the raw K x K inverse.  F_hat(S_(i))
    is computed by counting (right-sided binary search), not as i/n, so tied
    own scores are handled exactly.  Raises EmptyClass when a class has no
    calibration sample.
    """
    v = _f_weights(cal, w)
    s = np.sort(cal.own_score)
    values = _mean_f(cal, v, s) - np.searchsorted(s, s, side="right") / cal.n
    return InflationCurve(order_stats=s, values=values)
