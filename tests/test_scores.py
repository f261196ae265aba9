import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisycal import (
    CalibrationSet,
    InvalidProbability,
    InvalidSpec,
    aps_scores,
    prediction_sets,
    validate_probability_rows,
)
from noisycal.scores import _clip_scores
from oracles import brute_aps


def test_aps_hand_example():
    s = aps_scores(np.array([[0.5, 0.3, 0.2]]))
    assert np.allclose(s, [[0.5, 0.8, 1.0]], atol=1e-15)


def test_aps_point_mass_limit():
    e = 1e-6
    s = aps_scores(np.array([[1 - 2 * e, e, e]]))
    assert np.allclose(s, [[1 - 2 * e, 1 - e, 1.0]], atol=1e-12)
    degenerate = aps_scores(np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(degenerate, [[1.0, 1.0, 1.0]], atol=1e-15)


def test_aps_uniform_ties_break_by_index():
    s = aps_scores(np.full((1, 4), 0.25))
    assert np.allclose(s, [[0.25, 0.5, 0.75, 1.0]], atol=1e-15)


def test_aps_matches_scalar_oracle_on_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)))
        s = aps_scores(p[None, :])
        assert np.allclose(s[0], brute_aps(p), atol=1e-12)


def test_aps_randomized_bracket():
    # s_rand = s_det - U * p with U in [0, 1): below the deterministic score,
    # never by more than the own probability
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(5), size=40)
    det = aps_scores(p)
    ran = aps_scores(p, randomized=True, seed=9)
    assert np.all(ran <= det + 1e-15)
    assert np.all(ran >= np.clip(det - p, 0.0, 1.0) - 1e-15)
    again = aps_scores(p, randomized=True, seed=9)
    assert np.array_equal(ran, again)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")],
)
def test_aps_rejects_bad_seed(seed, message):
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(InvalidSpec, match=message):
        aps_scores(p, randomized=True, seed=seed)


@pytest.mark.parametrize("randomized", ["false", 0, 1, None, np.bool_(True)])
def test_aps_rejects_a_non_bool_randomized(randomized):
    # a truthy string such as "false" must not switch the randomization on
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(InvalidSpec, match="randomized must be a bool, got"):
        aps_scores(p, randomized=randomized)


def test_validate_probability_rows():
    with pytest.raises(InvalidProbability):
        validate_probability_rows(np.array([[0.7, 0.2]]))
    # within 1e-6 of stochastic: renormalized, not rejected
    fixed = validate_probability_rows(np.array([[0.5 + 4e-7, 0.5]]))
    assert fixed.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidProbability):
        validate_probability_rows(np.array([[1.2, -0.2]]))


def test_probability_vector_is_refused():
    # a vector was taken as one row: [0.25, 0.75] gave APS scores [[1.0, 0.75]]
    message = r"^expected an n x K matrix, got shape \(2,\)$"
    for call in (validate_probability_rows, aps_scores):
        with pytest.raises(InvalidProbability, match=message):
            call(np.array([0.25, 0.75]))


def test_prediction_set_examples():
    row = np.array([[0.5, 0.8, 1.0]])
    assert prediction_sets(row, 1.0).tolist() == [[True, True, True]]
    assert prediction_sets(row, 0.8).tolist() == [[True, True, False]]
    assert prediction_sets(row, 0.49).tolist() == [[False, False, False]]
    with pytest.raises(InvalidSpec):
        prediction_sets(row, 1.1)
    rows = np.array([[0.5, 0.8, 1.0], [0.1, 1.0, 0.3], [0.6, 0.7, 1.0]])
    assert prediction_sets(rows, 0.5).tolist() == [
        [True, False, False],
        [True, False, True],
        [False, False, False],
    ]
    with pytest.raises(InvalidSpec):
        prediction_sets(rows, 1.1)
    with pytest.raises(InvalidSpec):
        prediction_sets(rows, -0.1)
    # a string tau raised TypeError
    with pytest.raises(InvalidSpec, match="tau must be a real number"):
        prediction_sets(rows, "0.5")


def test_prediction_set_round_trip_and_monotone():
    rng = np.random.default_rng(7)
    taus = np.linspace(0.0, 1.0, 101)
    for _ in range(20):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k), size=n)
        scores = aps_scores(p)
        previous = np.zeros((n, k), dtype=bool)
        for tau in taus:
            mask = prediction_sets(scores, tau)
            assert mask.shape == (n, k) and mask.dtype == np.bool_
            for i in range(n):
                chosen = set(np.flatnonzero(mask[i]).tolist())
                assert chosen == {j for j in range(k) if scores[i, j] <= tau}
            assert not np.any(previous & ~mask)
            previous = mask
        assert previous.all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_score_matrix_rejects_non_finite(bad):
    scores = np.array([[0.2, 0.4], [0.5, 0.7], [0.1, 0.3]])
    scores[1, 1] = bad
    with pytest.raises(InvalidSpec, match=r"row 1, column 1 \(0-based\)"):
        _clip_scores(scores)


@pytest.mark.parametrize("direct", [False, True])
def test_non_finite_score_is_not_reported_as_label_mismatch(direct):
    # the NaN is row 0's own score, which once failed the own-score check
    scores = np.array([[0.2, math.nan], [0.5, 0.7]])
    labels = np.array([1, 0])
    with pytest.raises(InvalidSpec, match=r"row 0, column 1 \(0-based\)"):
        if direct:
            CalibrationSet(scores=scores, noisy_labels=labels)
        CalibrationSet.from_scores(scores, labels)


@pytest.mark.parametrize("bad", [1.5, -0.5])
def test_calibration_set_rejects_score_outside_unit_interval(bad):
    # checked, never clipped: a clipped score would no longer be its own score
    scores = np.array([[0.2, 0.4], [0.5, bad], [0.1, 0.3]])
    with pytest.raises(InvalidSpec, match=r"in \[0, 1\]; row 1, column 1 \(0-based\)"):
        CalibrationSet.from_scores(scores, np.array([0, 1, 0]))


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 12)),
        elements=st.floats(0.0, 1.0),
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_prediction_set_monotone_in_tau_property(scores, tau_a, tau_b):
    lo, hi = sorted((tau_a, tau_b))
    assert not np.any(prediction_sets(scores, lo) & ~prediction_sets(scores, hi))
