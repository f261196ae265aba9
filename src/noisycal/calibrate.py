"""Calibration thresholds, prediction sets and their evaluation.

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

Prediction sets over K labels at threshold tau are one boolean n x K
membership matrix, ``scores <= tau``: entry [i, k] is true when label k is in
row i's set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .correction import CorrectionReport
from .empirical import CalibrationSet, InflationCurve, delta_hat
from .errors import (
    LengthMismatch,
    _check_alpha,
    _check_array,
    _check_int,
    _check_label_vector,
    _check_real,
    _check_type,
)
from .scores import _require_scores

__all__ = [
    "OPTIMISTIC_CAVEAT",
    "CalibrationMethod",
    "ThresholdResult",
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


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """A calibrated threshold with its provenance.

    ``i_hat`` is the attaining 1-based rank among the own-score order
    statistics (None when the fallback tau = 1 fired).  ``correction``
    carries the delta(n) report for the adaptive rules.  A field of another
    type or out of range raises InvalidSpec naming it.  Two fields follow
    from these and are not passed: ``set_I_empty``, whether the fallback
    fired (``i_hat is None``), and ``warning``, the unverifiable side
    condition of the optimistic rule (None for the other rules).
    """

    tau: float
    i_hat: int | None
    method: CalibrationMethod
    correction: CorrectionReport | None
    set_I_empty: bool = field(init=False)
    warning: str | None = field(init=False)

    def __post_init__(self) -> None:
        _check_real("tau", self.tau, 0.0, 1.0)
        if self.i_hat is not None:
            _check_int("i_hat", self.i_hat, 1)
        _check_type("method", self.method, CalibrationMethod)
        if self.correction is not None:
            _check_type("correction", self.correction, CorrectionReport)
        object.__setattr__(self, "set_I_empty", self.i_hat is None)
        optimistic = self.method is CalibrationMethod.ADAPTIVE_PLUS
        object.__setattr__(self, "warning", OPTIMISTIC_CAVEAT if optimistic else None)


def standard_threshold(cal: CalibrationSet, alpha: float) -> ThresholdResult:
    """Split-conformal threshold: the ceil((1+n)(1-alpha))-th own score.

    The index is computed in exact integer arithmetic on the given float
    alpha (``_standard_index``), so boundary cases like (1+n)(1-alpha)
    landing on an integer do not depend on rounding of the product.
    """
    _check_type("cal", cal, CalibrationSet)
    _check_alpha(alpha)
    n = cal.n
    index = _standard_index(n, alpha)
    return _threshold_from_mask(
        np.sort(cal.own_score),
        np.arange(1, n + 1) >= index,
        CalibrationMethod.STANDARD,
        None,
    )


def _standard_index(n: int, alpha: float) -> int:
    """ceil((1+n)(1-alpha)) for the exact rational value p/q of the float
    alpha: -((-(1+n)(q-p)) // q), all in integers."""
    p, q = alpha.as_integer_ratio()
    return -(-(1 + n) * (q - p) // q)


def _threshold_from_mask(
    sorted_own: NDArray[np.float64],
    mask: NDArray[np.bool_],
    method: CalibrationMethod,
    correction: CorrectionReport | None,
) -> ThresholdResult:
    """The smallest rank in ``mask``, or the fallback tau = 1 when it is empty."""
    empty = not mask.any()
    first = int(np.argmax(mask))
    return ThresholdResult(
        tau=1.0 if empty else float(sorted_own[first]),
        i_hat=None if empty else first + 1,
        method=method,
        correction=correction,
    )


def _adaptive_inputs(
    cal: CalibrationSet, w, alpha: float, delta: CorrectionReport
) -> tuple[InflationCurve, NDArray[np.float64], NDArray[np.float64]]:
    """Delta_hat, the ranks i/n and the adaptive right side; alpha and delta checked here."""
    _check_alpha(alpha)
    _check_type("delta", delta, CorrectionReport)
    curve = delta_hat(cal, w)
    rhs = 1.0 - alpha - curve.values + delta.value
    return curve, np.arange(1, cal.n + 1) / cal.n, rhs


def adaptive_threshold(
    cal: CalibrationSet, w, alpha: float, delta: CorrectionReport
) -> ThresholdResult:
    """Contamination-adaptive threshold.

    Membership of rank i in the index set is the literal inequality
    i/n >= 1 - alpha - Delta_hat(S_(i)) + delta(n); the smallest member wins.
    """
    curve, ranks, rhs = _adaptive_inputs(cal, w, alpha, delta)
    return _threshold_from_mask(
        curve.order_stats, ranks >= rhs, CalibrationMethod.ADAPTIVE, delta
    )


def optimistic_threshold(
    cal: CalibrationSet, w, alpha: float, delta: CorrectionReport
) -> ThresholdResult:
    """Optimistic adaptive threshold.

    The inner correction is max(Delta_hat(S_(i)) - delta(n), -(1-alpha)/n),
    so the index set contains the adaptive one and the threshold is never
    larger; its right side is the adaptive one capped at 1 - alpha + (1-alpha)/n,
    so rounding keeps that containment.  The extra validity hypothesis is
    unverifiable from contaminated data, so the result carries a warning
    (``ThresholdResult.warning``) instead of refusing to run.
    """
    curve, ranks, rhs = _adaptive_inputs(cal, w, alpha, delta)
    rhs = np.minimum(rhs, 1.0 - alpha + (1.0 - alpha) / cal.n)
    return _threshold_from_mask(
        curve.order_stats,
        ranks >= rhs,
        CalibrationMethod.ADAPTIVE_PLUS,
        delta,
    )


def prediction_sets(scores, tau: float) -> NDArray[np.bool_]:
    """The n x K membership matrix ``scores <= tau`` of an n x K score array.

    Monotone in tau; tau = 1 admits every label because scores must lie in
    [0, 1]: a score that is not finite or lies outside it, like a tau that
    is not a real number in [0, 1] or an array that is not 2-d, raises
    InvalidSpec.  An all-false row (the empty set) is a legitimate output.
    """
    _check_real("tau", tau, 0.0, 1.0)
    return _require_scores(scores, tol=0.0) <= tau


def evaluate(sets: NDArray[np.bool_], true_labels) -> dict:
    """Empirical coverage and average set size of a membership matrix.

    ``true_labels`` are a vector of one 0-based label per set (any other
    shape raises LengthMismatch); a label outside [0, K) raises InvalidSpec.
    """
    mask = _check_array("sets", sets, bool, ndim=2)
    y = _check_array("true_labels", true_labels, None)
    n, k = mask.shape
    if y.ndim != 1 or y.shape[0] != n:
        got = f"{y.shape[0]} labels" if y.ndim == 1 else f"labels of shape {y.shape}"
        raise LengthMismatch(f"{n} prediction sets vs {got}")
    if n == 0:
        raise LengthMismatch("cannot evaluate zero prediction sets")
    y = _check_label_vector("true_labels", y, k)
    hits = int(mask[np.arange(n), y].sum())
    return {"coverage": hits / n, "avg_size": float(mask.sum(axis=1).mean())}
