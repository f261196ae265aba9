import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisycal import (
    CalibrationSet,
    ContaminationSpec,
    CorrectionMethod,
    CorrectionReport,
    EmptyClass,
    Family,
    InvalidSpec,
    adaptive_threshold,
    aps_scores,
    build_transition,
    delta_hat,
    sample_noisy_labels,
    standard_threshold,
)
from oracles import (
    ClassCdfs,
    brute_adaptive,
    brute_delta_hat,
    brute_psi,
    psi_sup_oracle,
    psi_values,
)


def small_cal(seed=0, n=40, k=3):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.random((n, k)), axis=1)
    labels = rng.integers(0, k, size=n)
    # every class must appear for the adaptive machinery
    labels[:k] = np.arange(k)
    return CalibrationSet.from_scores(scores, labels)


def test_calibration_set_validates_own_score():
    # own_score is derived from the scores and labels, never passed in, so a
    # mismatched own score cannot be built
    scores = np.array([[0.2, 0.9], [0.4, 0.8]])
    ok = CalibrationSet(scores, np.array([0, 1]))
    assert np.array_equal(ok.own_score, [0.2, 0.8])
    assert "own_score" not in inspect.signature(CalibrationSet).parameters


def test_calibration_set_refuses_no_rows_and_a_label_per_row_too_few():
    with pytest.raises(InvalidSpec, match="^scores must have at least one row$"):
        CalibrationSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    message = r"^noisy_labels must have shape \(3,\), got \(2,\)$"
    with pytest.raises(InvalidSpec, match=message):
        CalibrationSet(np.full((3, 2), 0.5), np.array([0, 1]))


def test_calibration_set_leaves_caller_arrays_writable():
    scores, labels = np.array([[0.2, 0.9], [0.4, 0.8]]), np.array([0, 1])
    cal = CalibrationSet.from_scores(scores, labels)
    scores[0, 0] = 0.1
    labels[1] = 0
    # the set holds its own read-only copies, untouched by the writes above
    assert np.array_equal(cal.scores, [[0.2, 0.9], [0.4, 0.8]])
    assert np.array_equal(cal.noisy_labels, [0, 1])
    for arr in (cal.scores, cal.noisy_labels, cal.own_score):
        assert not arr.flags.writeable


@pytest.mark.parametrize(
    "scores, labels, match",
    [
        ([[0.2, 0.9], [0.4, 0.8]], [0, 2], r"labels must lie in \[0, 1\]"),
        ([0.2, 0.9], [0, 1], r"scores must be a 2-d array, got shape \(2,\)"),
        ([[0.2, 0.9], [0.4, 0.8]], [0.7, 1.2], "must be integers"),
    ],
    ids=["label-past-k", "one-dimensional-scores", "float-labels"],
)
def test_from_scores_raises_typed_errors(scores, labels, match):
    # once an IndexError, an IndexError and a silent cut to [0, 1]
    with pytest.raises(InvalidSpec, match=match):
        CalibrationSet.from_scores(np.array(scores), np.array(labels))


def test_build_cdfs_empty_class_is_lazy():
    scores = np.array([[0.2, 0.5], [0.6, 0.7]])
    cal = CalibrationSet.from_scores(scores, np.array([0, 0]))
    # class 1 empty: fine for standard calibration, fatal for Delta_hat
    assert standard_threshold(cal, 0.5).tau == 0.6
    with pytest.raises(EmptyClass) as exc:
        delta_hat(cal, np.eye(2))
    assert exc.value.label == 1


def test_delta_hat_identity_w_is_zero():
    cal = small_cal(seed=1, n=120, k=4)
    curve = delta_hat(cal, np.eye(4))
    assert np.max(np.abs(curve.values)) <= 1e-12


def test_delta_hat_hand_instance_against_oracle():
    scores = np.array(
        [
            [0.1, 0.7],
            [0.5, 0.2],
            [0.9, 0.4],
            [0.3, 0.8],
        ]
    )
    labels = np.array([0, 1, 0, 1])
    w = np.array([[1.5, -0.5], [-0.5, 1.5]])
    curve = delta_hat(CalibrationSet.from_scores(scores, labels), w)
    order, values = brute_delta_hat(scores, labels, w)
    assert np.array_equal(curve.order_stats, order)
    assert np.allclose(curve.values, values, atol=1e-12, rtol=0.0)


def test_delta_hat_at_t_equal_one():
    rng = np.random.default_rng(2)
    scores = rng.random((60, 3))
    scores[0] = 1.0  # forces S_(n) = 1, where every CDF saturates
    labels = rng.integers(0, 3, size=60)
    labels[:3] = np.arange(3)
    w = np.array([[1.2, -0.1, -0.1], [-0.1, 1.2, -0.1], [-0.1, -0.1, 1.2]])
    cal = CalibrationSet.from_scores(scores, labels)
    curve = delta_hat(cal, w)
    # at t = 1: Delta_hat(1) = sum_kl W_kl rho_hat_l - 1
    rho_hat = np.bincount(labels, minlength=3) / 60
    expected = float(np.sum(w * rho_hat[None, :])) - 1.0
    assert curve.values[-1] == pytest.approx(expected, abs=1e-12)
    identity = delta_hat(cal, np.eye(3))
    assert identity.values[-1] == pytest.approx(0.0, abs=1e-12)


def test_delta_hat_matches_oracle_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(10, 120))
        k = int(rng.integers(2, 6))
        scores = rng.random((n, k))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        w = np.eye(k) + rng.normal(scale=0.2, size=(k, k))
        curve = delta_hat(CalibrationSet.from_scores(scores, labels), w)
        order, values = brute_delta_hat(scores, labels, w)
        assert np.allclose(curve.values, values, atol=1e-12, rtol=0.0)


@st.composite
def tied_instances(draw):
    """Scores rounded to 1 or 2 decimals (heavy ties), every class present."""
    n = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=1, max_value=5))
    n = max(n, k)
    decimals = draw(st.integers(min_value=1, max_value=2))
    unit = st.floats(min_value=0.0, max_value=1.0)
    scores = np.round(draw(arrays(np.float64, (n, k), elements=unit)), decimals)
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(list(range(k)) + rest, dtype=np.int64)
    w = draw(arrays(np.float64, (k, k), elements=st.floats(-2.0, 2.0)))
    alpha = draw(st.floats(min_value=0.01, max_value=0.99))
    delta = draw(st.floats(min_value=0.0, max_value=0.5))
    return CalibrationSet.from_scores(scores, labels), w, alpha, delta


@given(tied_instances())
# all scores 0, alpha = delta = 0.5 and W = 1 - 2^-53: the oracle's Delta_hat
# is -2^-53 and the library's -2^-52, so rank n's inequality is an equality
# that holds for the one and fails for the other
@example(
    instance=(
        CalibrationSet.from_scores(np.zeros((5, 1)), np.zeros(5, dtype=np.int64)),
        np.array([[1.0 - 2.0**-53]]),
        0.5,
        0.5,
    )
)
def test_delta_hat_and_i_hat_match_oracle_under_ties_property(instance):
    cal, w, alpha, delta = instance
    curve = delta_hat(cal, w)
    order, values = brute_delta_hat(cal.scores, cal.noisy_labels, w)
    assert np.array_equal(curve.order_stats, order)
    assert np.allclose(curve.values, values, atol=1e-12, rtol=0.0)
    report = CorrectionReport(method=CorrectionMethod.CN_ONLY, value=delta)
    res = adaptive_threshold(cal, w, alpha, report)
    i_lib, tau_lib, lib = brute_adaptive(order, curve.values, alpha, delta)
    assert (res.i_hat, res.tau) == (i_lib, tau_lib)
    # the oracle's Delta_hat matches only to rounding, so a rank may be in
    # one index set and not the other only where its inequality
    # i/n >= 1 - alpha - Delta_hat + delta holds with equality to 1e-12
    i_want, tau_want, want = brute_adaptive(order, values, alpha, delta)
    n = order.shape[0]
    slack = np.arange(1, n + 1) / n - (1.0 - alpha - values + delta)
    near_equal = set((np.flatnonzero(np.abs(slack) <= 1e-12) + 1).tolist())
    assert set(want) ^ set(lib) <= near_equal
    if not near_equal:
        assert (res.i_hat, res.tau) == (i_want, tau_want)


def population(seed, k, n_pop=200_000):
    """A fixed generative recipe: dirichlet probability rows + RR noise."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(k, 0.8), size=n_pop)
    scores = aps_scores(probs)
    tm = build_transition(
        ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=0.2)
    )
    true = rng.integers(0, k, size=n_pop)
    noisy = sample_noisy_labels(true, tm, seed=seed + 1)
    return scores, noisy, tm


def test_psi_at_one_is_rho_difference():
    k = 3
    scores, noisy, tm = population(3, k, n_pop=50_000)
    pop = ClassCdfs(CalibrationSet.from_scores(scores, noisy))
    cal = CalibrationSet.from_scores(scores[:80], noisy[:80])
    cdfs = ClassCdfs(cal)
    value = psi_values(cdfs, tm, pop, np.array([1.0]))[0]
    expected = float(np.sum(tm.W * (cdfs.rho_hat - pop.rho_hat)[None, :]))
    assert value == pytest.approx(expected, abs=1e-12)


def test_psi_matches_scalar_oracle():
    k = 3
    scores, noisy, tm = population(4, k, n_pop=20_000)
    pop = ClassCdfs(CalibrationSet.from_scores(scores, noisy))
    cal = CalibrationSet.from_scores(scores[:60], noisy[:60])
    cdfs = ClassCdfs(cal)
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        got = psi_values(cdfs, tm, pop, np.array([t]))[0]
        want = brute_psi(
            cal.scores,
            cal.noisy_labels,
            np.asarray(tm.W),
            pop.rho_hat,
            lambda l, kk, tt: float(pop.class_cdf(l, kk, tt)),
            t,
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_psi_is_centered():
    # E[psi_hat(t)] = 0: average over resampled calibration sets
    k = 3
    scores, noisy, tm = population(5, k, n_pop=200_000)
    pop = ClassCdfs(CalibrationSet.from_scores(scores, noisy))
    rng = np.random.default_rng(6)
    n = 50
    t_points = np.array([0.2, 0.4, 0.6, 0.8, 0.95])
    draws = np.empty((1000, t_points.size))
    for r in range(1000):
        idx = rng.integers(0, scores.shape[0], size=n)
        while np.unique(noisy[idx]).size < k:
            idx = rng.integers(0, scores.shape[0], size=n)
        cdfs = ClassCdfs(CalibrationSet.from_scores(scores[idx], noisy[idx]))
        draws[r] = psi_values(cdfs, tm, pop, t_points)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * se + 1e-4)


def test_psi_sup_identity_w_is_ks_like():
    # W=I, population = own distribution: sup psi_hat behaves like a
    # one-sample KS-type statistic; its mean obeys the sqrt(pi/2n) envelope
    rng = np.random.default_rng(8)
    n_pop = 300_000
    pop_scores = rng.random((n_pop, 1))
    pop = ClassCdfs(
        CalibrationSet.from_scores(pop_scores, np.zeros(n_pop, dtype=np.int64))
    )
    n = 40
    sups = np.empty(200)
    for r in range(200):
        s = rng.random((n, 1))
        cal = CalibrationSet.from_scores(s, np.zeros(n, dtype=np.int64))
        sups[r] = psi_sup_oracle(cal, np.eye(1), pop)
    se = sups.std(ddof=1) / math.sqrt(sups.size)
    assert sups.mean() <= math.sqrt(math.pi / (2 * n)) + 3 * se
