"""Calibration thresholds and prediction-set evaluation.

Three rules, all operating on the own-score order statistics S_(1) <= ... <=
S_(n):

* standard: tau = the ceil((1+n)(1-alpha))-th smallest own score, or 1 when
  that index overflows n.
* adaptive: tau = S_(i_hat) with i_hat = min{i : i/n >= 1 - alpha
  - Delta_hat(S_(i)) + delta(n)}, or 1 when the set is empty.
* adaptive-plus (optimistic): the correction inside the set membership is
  clipped at -(1-alpha)/n, producing a superset of the adaptive index set
  and hence a threshold that is never larger.

The adaptive rules never compute delta(n) themselves; the caller passes a
CorrectionReport so the provenance travels with the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .correction import CorrectionReport
from .empirical import CalibrationSet, delta_hat
from .errors import InvalidSpec, LengthMismatch
from .scores import ScoreMatrix, prediction_set

__all__ = [
    "CalibrationMethod",
    "ThresholdResult",
    "PredictionSet",
    "standard_threshold",
    "adaptive_threshold",
    "optimistic_threshold",
    "prediction_sets",
    "evaluate",
]

OPTIMISTIC_CAVEAT = (
    "optimistic rule: validity additionally requires the true inflation to stay "
    "above delta(n) - (1-alpha)/n everywhere, which cannot be checked from "
    "contaminated data"
)


class CalibrationMethod(str, Enum):
    STANDARD = "standard"
    ADAPTIVE = "adaptive"
    ADAPTIVE_PLUS = "adaptive_plus"


@dataclass(frozen=True)
class ThresholdResult:
    """A calibrated threshold with its provenance.

    ``i_hat`` is the attaining 1-based rank among the own-score order
    statistics (None when the fallback tau = 1 fired, flagged by
    ``set_I_empty``).  ``correction`` carries the delta(n) report for the
    adaptive rules; ``warning`` flags unverifiable side conditions.
    """

    tau: float
    i_hat: int | None
    method: CalibrationMethod
    correction: CorrectionReport | None
    set_I_empty: bool
    warning: str | None = None


@dataclass(frozen=True)
class PredictionSet:
    """Labels (0-based) admitted at threshold tau for one test row."""

    labels: NDArray[np.int64]
    tau: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidSpec(f"alpha must lie in (0, 1), got {alpha}")


def standard_threshold(cal: CalibrationSet, alpha: float) -> ThresholdResult:
    """Split-conformal threshold: the ceil((1+n)(1-alpha))-th own score.

    The index is computed in exact rational arithmetic on the given float
    alpha, so boundary cases like (1+n)(1-alpha) landing on an integer do not
    depend on rounding of the product.
    """
    _check_alpha(alpha)
    n = cal.n
    index = math.ceil((1 + n) * (1 - Fraction(alpha)))
    if index > n:
        return ThresholdResult(
            tau=1.0,
            i_hat=None,
            method=CalibrationMethod.STANDARD,
            correction=None,
            set_I_empty=True,
        )
    tau = float(np.sort(cal.own_score)[index - 1])
    return ThresholdResult(
        tau=tau,
        i_hat=index,
        method=CalibrationMethod.STANDARD,
        correction=None,
        set_I_empty=False,
    )


def _threshold_from_mask(
    sorted_own: NDArray[np.float64],
    mask: NDArray[np.bool_],
    method: CalibrationMethod,
    correction: CorrectionReport,
    warning: str | None = None,
) -> ThresholdResult:
    if not mask.any():
        return ThresholdResult(
            tau=1.0,
            i_hat=None,
            method=method,
            correction=correction,
            set_I_empty=True,
            warning=warning,
        )
    first = int(np.argmax(mask))
    return ThresholdResult(
        tau=float(sorted_own[first]),
        i_hat=first + 1,
        method=method,
        correction=correction,
        set_I_empty=False,
        warning=warning,
    )


def adaptive_threshold(
    cal: CalibrationSet, w, alpha: float, delta: CorrectionReport
) -> ThresholdResult:
    """Contamination-adaptive threshold.

    Membership of rank i in the index set is the literal inequality
    i/n >= 1 - alpha - Delta_hat(S_(i)) + delta(n); the smallest member wins.
    """
    _check_alpha(alpha)
    if delta.value < 0.0:
        raise InvalidSpec("delta(n) must be nonnegative")
    curve = delta_hat(cal, w)
    n = cal.n
    ranks = np.arange(1, n + 1) / n
    rhs = 1.0 - alpha - curve.values + delta.value
    return _threshold_from_mask(
        curve.order_stats, ranks >= rhs, CalibrationMethod.ADAPTIVE, delta
    )


def optimistic_threshold(
    cal: CalibrationSet, w, alpha: float, delta: CorrectionReport
) -> ThresholdResult:
    """Optimistic adaptive threshold.

    The inner correction is max(Delta_hat(S_(i)) - delta(n), -(1-alpha)/n),
    so the index set contains the adaptive one and the threshold is never
    larger.  The extra validity hypothesis is unverifiable from contaminated
    data, so the result carries a warning instead of refusing to run.
    """
    _check_alpha(alpha)
    if delta.value < 0.0:
        raise InvalidSpec("delta(n) must be nonnegative")
    curve = delta_hat(cal, w)
    n = cal.n
    ranks = np.arange(1, n + 1) / n
    inner = np.maximum(curve.values - delta.value, -(1.0 - alpha) / n)
    rhs = 1.0 - alpha - inner
    return _threshold_from_mask(
        curve.order_stats,
        ranks >= rhs,
        CalibrationMethod.ADAPTIVE_PLUS,
        delta,
        warning=OPTIMISTIC_CAVEAT,
    )


def prediction_sets(scores, tau: float) -> list[PredictionSet]:
    """Threshold every score row into a PredictionSet."""
    s = scores.scores if isinstance(scores, ScoreMatrix) else np.asarray(scores)
    return [PredictionSet(labels=prediction_set(row, tau), tau=tau) for row in s]


def evaluate(sets: list[PredictionSet], true_labels) -> dict:
    """Empirical coverage and average set size against true labels."""
    y = np.asarray(true_labels)
    if len(sets) != y.shape[0]:
        raise LengthMismatch(
            f"{len(sets)} prediction sets vs {y.shape[0]} labels"
        )
    if len(sets) == 0:
        raise LengthMismatch("cannot evaluate zero prediction sets")
    hits = sum(1 for ps, label in zip(sets, y) if label in ps.labels)
    sizes = [ps.labels.shape[0] for ps in sets]
    return {"coverage": hits / len(sets), "avg_size": float(np.mean(sizes))}
