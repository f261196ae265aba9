"""Tests for calibration thresholds and prediction-set evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisycal import calibrate
from noisycal import (
    OPTIMISTIC_CAVEAT,
    CalibrationMethod,
    CalibrationSet,
    ContaminationSpec,
    CorrectionMethod,
    CorrectionReport,
    Family,
    InvalidSpec,
    LengthMismatch,
    adaptive_threshold,
    closed_form_inverse,
    delta_hat,
    evaluate,
    optimistic_threshold,
    prediction_sets,
    standard_threshold,
)

from oracles import (
    brute_adaptive,
    brute_evaluate,
    brute_optimistic,
    brute_standard_index,
)


def report(value: float) -> CorrectionReport:
    return CorrectionReport(method=CorrectionMethod.CN_ONLY, value=value)


def random_calibration(seed, n, k):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.uniform(size=(n, k)), axis=1)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    return CalibrationSet.from_scores(scores, labels)


def rr_w(k, eps):
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)
    return closed_form_inverse(spec).W


# ---------------------------------------------------------------------------
# standard rule
# ---------------------------------------------------------------------------


def test_standard_small_n_examples():
    # (1+9)(1-0.1) = 9 exactly, so the largest order statistic is used
    cal = random_calibration(0, 9, 3)
    res = standard_threshold(cal, 0.1)
    assert res.i_hat == 9
    assert res.tau == float(np.sort(cal.own_score)[-1])
    assert res.method is CalibrationMethod.STANDARD
    assert res.correction is None and not res.set_I_empty


def test_standard_overflow_falls_back_to_one():
    cal = random_calibration(1, 3, 2)
    res = standard_threshold(cal, 0.1)  # index 4 exceeds n = 3
    assert res.tau == 1.0
    assert res.i_hat is None
    assert res.set_I_empty


def test_standard_index_is_exact_in_alpha():
    # float products like 100 * 0.9 round up and would shift the index
    cal = random_calibration(2, 99, 4)
    res = standard_threshold(cal, 0.1)
    assert res.i_hat == 90 == brute_standard_index(99, 0.1)
    assert res.tau == float(np.sort(cal.own_score)[89])


@pytest.mark.parametrize("n,alpha", [(10, 0.5), (20, 0.25), (7, 0.05), (50, 0.1)])
def test_standard_index_matches_oracle(n, alpha):
    cal = random_calibration(3, n, 2)
    res = standard_threshold(cal, alpha)
    want = brute_standard_index(n, alpha)
    if want > n:
        assert res.i_hat is None and res.tau == 1.0
    else:
        assert res.i_hat == want


@st.composite
def index_cases(draw):
    """(n, alpha): any float alpha in (0, 1), or alpha = j / 2^e with j odd
    and 1 + n a multiple of 2^e, so that (1 + n)(1 - alpha) is an integer."""
    if draw(st.booleans()):
        e = draw(st.integers(1, 40))
        alpha = (2 * draw(st.integers(0, 2 ** (e - 1) - 1)) + 1) / 2**e
        return draw(st.integers(1, 2**20)) * 2**e - 1, alpha
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return draw(st.integers(1, 10**12)), alpha


@given(index_cases())
def test_standard_index_is_the_fraction_formula(case):
    # the integer ceiling of the float's exact ratio against Fraction's
    n, alpha = case
    assert calibrate._standard_index(n, alpha) == brute_standard_index(n, alpha)


def test_standard_takes_a_numpy_float32_alpha():
    # Fraction refused a float32 with a bare TypeError
    cal = random_calibration(5, 15, 2)
    res = standard_threshold(cal, np.float32(0.25))
    assert res.i_hat == 12 == brute_standard_index(15, 0.25)


def test_standard_rejects_bad_alpha():
    cal = random_calibration(4, 10, 2)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidSpec):
            standard_threshold(cal, alpha)
    # a bare score array raised AttributeError on .n
    with pytest.raises(InvalidSpec, match="cal must be a CalibrationSet, got ndarray"):
        standard_threshold(cal.scores, 0.1)


@pytest.mark.parametrize("alpha", ["0.1", None, True], ids=["str", "none", "bool"])
@pytest.mark.parametrize("rule", ["standard", "adaptive", "optimistic"])
def test_thresholds_reject_non_real_alpha(rule, alpha):
    # a str or None used to reach the range check and raise a bare TypeError
    cal = random_calibration(4, 10, 2)
    with pytest.raises(InvalidSpec, match="alpha must be a real number"):
        if rule == "standard":
            standard_threshold(cal, alpha)
        elif rule == "adaptive":
            adaptive_threshold(cal, rr_w(2, 0.1), alpha, report(0.0))
        else:
            optimistic_threshold(cal, rr_w(2, 0.1), alpha, report(0.0))


# ---------------------------------------------------------------------------
# adaptive rule
# ---------------------------------------------------------------------------


def test_adaptive_identity_no_correction_uses_smallest_valid_rank():
    # W = I makes Delta_hat vanish, so the rule is i/n >= 1 - alpha
    cal = random_calibration(5, 10, 3)
    res = adaptive_threshold(cal, np.eye(3), 0.1, report(0.0))
    assert res.i_hat == 9
    assert res.tau == float(np.sort(cal.own_score)[8])
    assert res.method is CalibrationMethod.ADAPTIVE
    assert res.correction.value == 0.0


def test_adaptive_identity_within_one_rank_of_standard():
    # without contamination the two rules may differ by one order statistic
    # (strict ceil vs >=), never more
    for seed in range(5):
        cal = random_calibration(seed, 40, 2)
        std = standard_threshold(cal, 0.1)
        ada = adaptive_threshold(cal, np.eye(2), 0.1, report(0.0))
        assert abs(std.i_hat - ada.i_hat) <= 1


def test_adaptive_huge_delta_empties_index_set():
    cal = random_calibration(6, 12, 2)
    res = adaptive_threshold(cal, np.eye(2), 0.1, report(5.0))
    assert res.set_I_empty
    assert res.tau == 1.0 and res.i_hat is None
    assert res.correction.value == 5.0


def test_adaptive_matches_enumeration_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        cal = random_calibration(seed + 100, n, k)
        w = rr_w(k, float(rng.uniform(0.0, 0.3)))
        alpha = float(rng.uniform(0.05, 0.3))
        delta = float(rng.uniform(0.0, 0.1))
        res = adaptive_threshold(cal, w, alpha, report(delta))
        curve = delta_hat(cal, w)
        i_want, tau_want, _ = brute_adaptive(curve.order_stats, curve.values, alpha, delta)
        assert res.i_hat == i_want
        assert res.tau == tau_want


def test_adaptive_threshold_monotone_in_delta_and_alpha():
    cal = random_calibration(7, 50, 3)
    w = rr_w(3, 0.2)
    taus = [adaptive_threshold(cal, w, 0.1, report(d)).tau for d in (0.0, 0.02, 0.05, 0.2)]
    assert taus == sorted(taus)
    by_alpha = [adaptive_threshold(cal, w, a, report(0.01)).tau for a in (0.05, 0.1, 0.2, 0.4)]
    assert by_alpha == sorted(by_alpha, reverse=True)


@st.composite
def adaptive_problems(draw):
    """A calibration set, an RR inverse and two (alpha, delta) pairs."""
    n = draw(st.integers(min_value=2, max_value=60))
    k = draw(st.integers(min_value=2, max_value=5))
    cal = random_calibration(draw(st.integers(0, 2**32 - 1)), max(n, k), k)
    w = rr_w(k, draw(st.floats(min_value=0.0, max_value=0.5)))
    alphas = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2)))
    deltas = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2)))
    return cal, w, alphas, deltas


@given(adaptive_problems())
def test_adaptive_tau_monotone_in_alpha_and_delta_property(problem):
    cal, w, (alpha_lo, alpha_hi), (delta_lo, delta_hi) = problem

    def tau(alpha, delta):
        return adaptive_threshold(cal, w, alpha, report(delta)).tau

    assert tau(alpha_hi, delta_lo) <= tau(alpha_lo, delta_lo)
    assert tau(alpha_lo, delta_lo) <= tau(alpha_lo, delta_hi)


@given(adaptive_problems())
def test_optimistic_tau_never_exceeds_adaptive_property(problem):
    cal, w, (alpha, _), (delta, _) = problem
    plus = optimistic_threshold(cal, w, alpha, report(delta))
    plain = adaptive_threshold(cal, w, alpha, report(delta))
    assert plus.tau <= plain.tau


# ---------------------------------------------------------------------------
# optimistic rule
# ---------------------------------------------------------------------------


def test_optimistic_equals_adaptive_when_clip_inactive():
    cal = random_calibration(8, 25, 3)
    res_a = adaptive_threshold(cal, np.eye(3), 0.1, report(0.0))
    res_p = optimistic_threshold(cal, np.eye(3), 0.1, report(0.0))
    assert res_p.tau == res_a.tau and res_p.i_hat == res_a.i_hat
    assert res_p.warning == OPTIMISTIC_CAVEAT
    assert res_a.warning is None


def test_optimistic_recovers_standard_when_delta_overwhelms():
    # with Delta_hat = 0 and a huge delta the clip floors the correction at
    # -(1-alpha)/n, which is exactly the standard index inequality
    cal = random_calibration(9, 10, 2)
    res = optimistic_threshold(cal, np.eye(2), 0.1, report(3.0))
    assert res.i_hat == brute_standard_index(10, 0.1) == 10
    ada = adaptive_threshold(cal, np.eye(2), 0.1, report(3.0))
    assert ada.set_I_empty and not res.set_I_empty


def test_optimistic_never_exceeds_adaptive():
    for seed in range(30):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        cal = random_calibration(seed + 300, n, k)
        w = rr_w(k, float(rng.uniform(0.0, 0.3)))
        alpha = float(rng.uniform(0.05, 0.3))
        delta = float(rng.uniform(0.0, 0.15))
        res_p = optimistic_threshold(cal, w, alpha, report(delta))
        res_a = adaptive_threshold(cal, w, alpha, report(delta))
        assert res_p.tau <= res_a.tau


def test_optimistic_matches_enumeration_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed + 900)
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        cal = random_calibration(seed + 700, n, k)
        w = rr_w(k, float(rng.uniform(0.0, 0.3)))
        alpha = float(rng.uniform(0.05, 0.3))
        delta = float(rng.uniform(0.0, 0.15))
        res = optimistic_threshold(cal, w, alpha, report(delta))
        curve = delta_hat(cal, w)
        i_want, tau_want, _ = brute_optimistic(curve.order_stats, curve.values, alpha, delta)
        assert res.i_hat == i_want
        assert res.tau == tau_want


# ---------------------------------------------------------------------------
# prediction sets and evaluation
# ---------------------------------------------------------------------------


def test_prediction_sets_thresholds_each_row():
    scores = np.array([[0.2, 0.6, 1.0], [0.5, 0.5, 1.0]])
    sets = prediction_sets(scores, 0.5)
    assert sets.dtype == np.bool_
    assert sets.tolist() == [[True, False, False], [True, True, False]]


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.nan, r"finite; row 1, column 0 \(0-based\)"),
        (1.8, r"in \[0, 1\]; row 1, column 0 \(0-based\)"),
        (-0.5, r"in \[0, 1\]; row 1, column 0 \(0-based\)"),
        (None, r"scores must be a 2-d array, got shape \(2,\)"),
    ],
    ids=["nan", "above-one", "below-zero", "one-dimensional"],
)
def test_prediction_sets_rejects_bad_scores(bad, match):
    # unchecked, a score of 1.8 fell outside the tau = 1 set and a NaN dropped its label
    if bad is None:
        scores = np.array([0.3, 1.0])
    else:
        scores = np.array([[0.3, 1.0], [bad, 1.0]])
    with pytest.raises(InvalidSpec, match=match):
        prediction_sets(scores, 1.0)


def test_prediction_sets_tau_one_admits_everything():
    scores = np.random.default_rng(0).uniform(size=(5, 4))
    scores = np.sort(scores, axis=1)
    scores[:, -1] = 1.0
    assert prediction_sets(scores, 1.0).all()


def test_evaluate_hand_example():
    sets = np.array([[True, False], [True, True]])
    out = evaluate(sets, [1, 1])
    assert out == {"coverage": 0.5, "avg_size": 1.5}


def test_evaluate_empty_sets():
    sets = np.zeros((3, 3), dtype=bool)
    out = evaluate(sets, [0, 1, 2])
    assert out == {"coverage": 0.0, "avg_size": 0.0}


def test_evaluate_validation():
    sets = np.array([[True, False]])
    with pytest.raises(LengthMismatch, match="1 prediction sets vs 2 labels"):
        evaluate(sets, [0, 1])
    with pytest.raises(LengthMismatch):
        evaluate(np.zeros((0, 2), dtype=bool), [])
    # a scalar label raised IndexError
    with pytest.raises(LengthMismatch, match="labels of shape"):
        evaluate(sets, 3)


@pytest.mark.parametrize("label", [-1, 3])
def test_evaluate_rejects_label_outside_range(label):
    # -1 would otherwise read column K-1 and 3 would count as a miss
    sets = np.array([[True, False, True], [False, True, False]])
    with pytest.raises(InvalidSpec, match="outside"):
        evaluate(sets, [0, label])


def test_evaluate_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, k = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        sets = rng.uniform(size=(n, k)) < 0.5
        y = rng.integers(0, k, size=n)
        out = evaluate(sets, y)
        cov, size = brute_evaluate(sets, y)
        assert out["coverage"] == cov
        assert out["avg_size"] == size
