"""Empirical CDFs, the inflation estimator, and the centered process psi.

Notation: for calibration data (X_i, Y~_i) with scores s(X_i, k), F_hat is
the empirical CDF of the own scores s(X_i, Y~_i), F_hat_l^k the empirical CDF
of s(X_i, k) restricted to samples with Y~_i = l, and rho_hat_l the class
frequencies.  The inflation estimator is

    Delta_hat(t) = sum_k sum_l W[k, l] * rho_hat[l] * F_hat_l^k(t) - F_hat(t),

evaluated only at the own-score order statistics, which is all the adaptive
calibration rule ever needs.

Float determinism matters here: Delta_hat must match a brute-force reference
bit for bit, so the summation order is fixed (l outer, k inner), terms are
associated as (W[k, l] * rho[l]) * F, and accumulation is Kahan-compensated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyClass, InvalidSpec
from .noise_model import TransitionMatrix
from .scores import ScoreMatrix, _require_finite

__all__ = [
    "CalibrationSet",
    "EmpiricalCdfs",
    "InflationCurve",
    "build_cdfs",
    "delta_hat",
    "psi_values",
    "psi_sup_oracle",
]


def _as_w(w) -> NDArray[np.float64]:
    if isinstance(w, TransitionMatrix):
        return w.W
    return np.asarray(w, dtype=np.float64)


@dataclass(frozen=True)
class CalibrationSet:
    """Calibration scores with their noisy labels.

    ``own_score[i]`` must equal ``scores[i, noisy_labels[i]]`` exactly.
    """

    scores: NDArray[np.float64]
    noisy_labels: NDArray[np.int64]
    own_score: NDArray[np.float64]

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.noisy_labels)
        own = np.asarray(self.own_score, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] < 1:
            raise InvalidSpec(f"scores must be a nonempty n x K matrix, got {s.shape}")
        _require_finite(s)
        n, k = s.shape
        if y.shape != (n,) or own.shape != (n,):
            raise InvalidSpec("noisy_labels and own_score must have length n")
        if y.min() < 0 or y.max() >= k:
            raise InvalidSpec(f"labels must lie in [0, {k - 1}] (0-based)")
        if not np.array_equal(s[np.arange(n), y], own):
            raise InvalidSpec("own_score[i] must equal scores[i, noisy_labels[i]]")
        for arr in (s, own):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "noisy_labels", y.astype(np.int64))
        object.__setattr__(self, "own_score", own)

    @classmethod
    def from_scores(cls, scores, noisy_labels) -> "CalibrationSet":
        """Build from a ScoreMatrix (or raw n x K array) plus labels."""
        s = scores.scores if isinstance(scores, ScoreMatrix) else np.asarray(scores)
        y = np.asarray(noisy_labels, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != s.shape[0]:
            raise InvalidSpec("noisy_labels must be a length-n vector")
        own = s[np.arange(s.shape[0]), y]
        return cls(scores=s, noisy_labels=y, own_score=own)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class EmpiricalCdfs:
    """Sorted score columns per class plus own-score order statistics.

    ``sorted_by_class[l]`` holds the class-l score rows with every column
    sorted ascending, so CDF queries are binary searches.  Classes with no
    samples are recorded with empty arrays; querying them raises EmptyClass.
    """

    sorted_by_class: tuple[NDArray[np.float64], ...]
    sorted_own: NDArray[np.float64]
    class_counts: NDArray[np.int64]
    rho_hat: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.sorted_own.shape[0]

    @property
    def k(self) -> int:
        return len(self.sorted_by_class)

    def f_hat(self, t) -> NDArray[np.float64]:
        """Empirical CDF of the own scores, inclusive (<= t)."""
        return np.searchsorted(self.sorted_own, t, side="right") / self.n

    def class_cdf(self, label: int, k: int, t) -> NDArray[np.float64]:
        """F_hat_l^k(t): CDF of column-k scores among class-``label`` rows."""
        nl = int(self.class_counts[label])
        if nl == 0:
            raise EmptyClass(label)
        col = self.sorted_by_class[label][:, k]
        return np.searchsorted(col, t, side="right") / nl


@dataclass(frozen=True)
class InflationCurve:
    """Delta_hat evaluated at the own-score order statistics."""

    order_stats: NDArray[np.float64]
    values: NDArray[np.float64]


def build_cdfs(cal: CalibrationSet) -> EmpiricalCdfs:
    """Sort the per-class score columns and the own scores.

    Succeeds even when some class is empty (the standard method never needs
    per-class CDFs); delta_hat raises EmptyClass later in that case.
    """
    n, k = cal.scores.shape
    counts = np.bincount(cal.noisy_labels, minlength=k).astype(np.int64)
    by_class = tuple(
        np.sort(cal.scores[cal.noisy_labels == label], axis=0) for label in range(k)
    )
    return EmpiricalCdfs(
        sorted_by_class=by_class,
        sorted_own=np.sort(cal.own_score),
        class_counts=counts,
        rho_hat=counts / n,
    )


def delta_hat(cdfs: EmpiricalCdfs, w) -> InflationCurve:
    """Inflation estimator at every own-score order statistic.

    ``w`` may be a TransitionMatrix or the raw K x K inverse.  F_hat(S_(i))
    is computed by counting (right-sided binary search), not as i/n, so tied
    own scores are handled exactly.
    """
    w = _as_w(w)
    n, k = cdfs.n, cdfs.k
    if w.shape != (k, k):
        raise InvalidSpec(f"W has shape {w.shape}, expected {(k, k)}")
    for label in range(k):
        if cdfs.class_counts[label] == 0:
            raise EmptyClass(label)
    s = cdfs.sorted_own
    total = np.zeros(n)
    comp = np.zeros(n)
    for l in range(k):
        nl = int(cdfs.class_counts[l])
        rho_l = cdfs.rho_hat[l]
        cols = cdfs.sorted_by_class[l]
        for kk in range(k):
            f = np.searchsorted(cols[:, kk], s, side="right") / nl
            term = (w[kk, l] * rho_l) * f
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    values = total - np.searchsorted(s, s, side="right") / n
    return InflationCurve(order_stats=s, values=values)


def psi_values(
    cdfs: EmpiricalCdfs,
    w,
    population_cdfs: EmpiricalCdfs,
    t: NDArray[np.float64],
) -> NDArray[np.float64]:
    """The centered process psi_hat at the given points.

    psi_hat(t) = sum_k sum_l W[k, l] (rho_hat[l] F_hat_l^k(t)
                                      - rho_tilde[l] F_tilde_l^k(t)),
    with the population pieces supplied by an EmpiricalCdfs built on a large
    fresh sample.
    """
    w = _as_w(w)
    k = cdfs.k
    if population_cdfs.k != k:
        raise InvalidSpec("population CDFs have a different number of classes")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    total = np.zeros(t.shape[0])
    comp = np.zeros(t.shape[0])
    for l in range(k):
        for kk in range(k):
            diff = cdfs.rho_hat[l] * cdfs.class_cdf(l, kk, t) - population_cdfs.rho_hat[
                l
            ] * population_cdfs.class_cdf(l, kk, t)
            term = w[kk, l] * diff
            y = term - comp
            tt = total + y
            comp = (tt - total) - y
            total = tt
    return total


def psi_sup_oracle(cal: CalibrationSet, w, population_cdfs: EmpiricalCdfs) -> float:
    """Supremum of psi_hat over {0} + own-score order statistics + {1}.

    A validation oracle: the adaptive machinery never calls this at run time.
    The evaluation points follow the calibration order statistics, so this is
    a sup over the contractual grid rather than over every breakpoint of the
    population CDFs.
    """
    cdfs = build_cdfs(cal)
    points = np.concatenate(([0.0], cdfs.sorted_own, [1.0]))
    return float(np.max(psi_values(cdfs, w, population_cdfs, points)))
