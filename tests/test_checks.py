"""Bad input at the public boundary: every entry point that takes alpha, a
bounded real scalar, a label vector, a W/T matrix or a calibration set, report,
spec or transition matrix raises the typed error of its one checker, and the
message names the argument."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisycal import (
    BetaVector,
    CalibrationSet,
    ContaminationSpec,
    CorrectionMethod,
    CorrectionReport,
    DimensionMismatch,
    InvalidSpec,
    LengthMismatch,
    SynthConfig,
    TransitionMatrix,
    adaptive_threshold,
    b_term,
    build_transition,
    closed_form_inverse,
    delta_asy,
    delta_fs,
    delta_fs_special,
    delta_hat,
    delta_star_star_bound,
    estimate_covariance,
    evaluate,
    omega_matrix,
    optimistic_threshold,
    prediction_sets,
    sample_noisy_labels,
    standard_threshold,
    train_softmax,
    transition_from_matrix,
    upper_bound_diagnostics,
)
from noisycal.cli import ExperimentConfig

SCORES = np.array([[0.2, 0.9], [0.4, 0.8], [0.7, 0.1]])
CAL = CalibrationSet(SCORES, np.array([0, 1, 1]))
W = np.eye(2)
T = np.array([[0.9, 0.1], [0.1, 0.9]])
RHO = np.array([0.5, 0.5])
REPORT = CorrectionReport(method=CorrectionMethod.CN_ONLY, value=0.0)
BETA = BetaVector(beta0=1.0, betas=np.zeros(2))
RR2 = ContaminationSpec(family="rr", k=2, eps=0.1)
SIZES = dict(k=2, d=4, n_train=10, n_cal=10, n_test=10)


def _diagnostics(**kwargs):
    args = dict(n=100, k=2, t=T, rho=RHO, rho_tilde=RHO, delta_n=0.1, delta_ss_n=0.1)
    return upper_bound_diagnostics(**(args | kwargs))


# (entry point, argument name in the message, call with the bad value,
#  finite reals outside the argument's range)
SCALARS = [
    ("standard_threshold", "alpha", lambda v: standard_threshold(CAL, v), [0.0, 1.0]),
    (
        "adaptive_threshold",
        "alpha",
        lambda v: adaptive_threshold(CAL, W, v, REPORT),
        [0.0, 1.5],
    ),
    (
        "optimistic_threshold",
        "alpha",
        lambda v: optimistic_threshold(CAL, W, v, REPORT),
        [-0.2, 1.0],
    ),
    ("upper_bound_diagnostics", "alpha", lambda v: _diagnostics(alpha=v), [0.0, 1.0]),
    ("ExperimentConfig", "alpha", lambda v: ExperimentConfig(**SIZES, alpha=v), [1.0]),
    ("prediction_sets", "tau", lambda v: prediction_sets(SCORES, v), [-0.1, 1.1]),
    (
        "ContaminationSpec",
        "eps",
        lambda v: ContaminationSpec(family="rr", k=2, eps=v),
        [-0.1, 1.0],
    ),
    (
        "ContaminationSpec",
        "nu",
        lambda v: ContaminationSpec(family="two_level_rr", k=2, eps=0.1, nu=v),
        [-0.1, 1.5],
    ),
    ("SynthConfig", "cube_side", lambda v: SynthConfig(**SIZES, cube_side=v), [0.0]),
    ("SynthConfig", "imbalance_mu", lambda v: SynthConfig(**SIZES, imbalance_mu=v), [-0.5]),
    ("delta_fs", "c_n", lambda v: delta_fs(100, 2, W, v), [0.0, -0.1]),
    ("delta_fs_special", "c_n", lambda v: delta_fs_special(RR2, 100, v), [0.0]),
    (
        "CorrectionReport",
        "value",
        lambda v: CorrectionReport(method=CorrectionMethod.CN_ONLY, value=v),
        [-0.01],
    ),
    ("BetaVector", "beta0", lambda v: BetaVector(beta0=v, betas=np.zeros(2)), []),
    ("upper_bound_diagnostics", "delta_n", lambda v: _diagnostics(delta_n=v), [-0.1]),
    (
        "upper_bound_diagnostics",
        "delta_ss_n",
        lambda v: _diagnostics(delta_ss_n=v),
        [-0.1],
    ),
]

# NaN, +-inf, a bool, a str and a one-element list (the wrong shape)
BAD_SCALARS = [math.nan, math.inf, -math.inf, True, "0.1", [0.1]]


@pytest.mark.parametrize(
    "call, name, bad",
    [
        pytest.param(call, name, bad, id=f"{entry}-{name}-{bad!r}")
        for entry, name, call, out_of_range in SCALARS
        for bad in BAD_SCALARS + out_of_range
    ],
)
def test_bad_scalar_raises_invalid_spec_naming_it(call, name, bad):
    with pytest.raises(InvalidSpec, match=rf"^{name} must "):
        call(bad)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_alpha_is_accepted_exactly_on_the_open_unit_interval(alpha):
    if 0.0 < alpha < 1.0:
        standard_threshold(CAL, alpha)
    else:
        with pytest.raises(InvalidSpec, match="^alpha must "):
            standard_threshold(CAL, alpha)


X3 = np.array([[0.0], [1.0], [2.0]])

# (entry point, argument name in the message, call with the bad labels, the
#  error and message fragment of the caller's own shape check); three labels
#  of K = 2 classes
LABELS = [
    (
        "CalibrationSet",
        "noisy_labels",
        lambda y: CalibrationSet(SCORES, y),
        (InvalidSpec, "noisy_labels"),
    ),
    (
        "evaluate",
        "true_labels",
        lambda y: evaluate(SCORES <= 0.5, y),
        (LengthMismatch, "labels of shape"),
    ),
    (
        "sample_noisy_labels",
        "true_labels",
        lambda y: sample_noisy_labels(y, build_transition(RR2), seed=0),
        (InvalidSpec, "true_labels"),
    ),
    (
        "train_softmax",
        "training labels",
        lambda y: train_softmax(X3, y, n_classes=2),
        (DimensionMismatch, "label vector"),
    ),
]

BAD_LABELS = {
    "nan": (np.array([0.0, 1.0, math.nan]), "must be integers"),
    "inf": (np.array([0.0, math.inf, 1.0]), "must be integers"),
    "bool": (np.array([True, False, True]), "must be integers"),
    "str": (np.array(["0", "1", "1"]), "must be integers"),
    "float": (np.array([0.0, 1.0, 1.0]), "must be integers"),
    "past-k": (np.array([0, 1, 2]), r"must lie in \[0, 1\]; row 2 \(0-based\) is 2"),
    "negative": (np.array([-1, 0, 1]), r"must lie in \[0, 1\]; row 0 \(0-based\) is -1"),
}


@pytest.mark.parametrize("kind", list(BAD_LABELS))
@pytest.mark.parametrize(
    "call, name",
    [pytest.param(call, name, id=entry) for entry, name, call, _ in LABELS],
)
def test_bad_label_vector_raises_invalid_spec_naming_it(call, name, kind):
    labels, message = BAD_LABELS[kind]
    with pytest.raises(InvalidSpec, match=f"^{name} {message}"):
        call(labels)


@pytest.mark.parametrize(
    "call",
    [pytest.param(call, id=entry) for entry, _, call, _ in LABELS]
    + [pytest.param(lambda y: train_softmax(X3, y), id="train_softmax-inferred-k")],
)
def test_unsigned_labels_are_accepted(call):
    call(np.array([0, 1, 1], dtype=np.uint8))


@pytest.mark.parametrize(
    "call, error, fragment",
    [pytest.param(call, *shape, id=entry) for entry, _, call, shape in LABELS],
)
def test_label_matrix_raises_the_callers_shape_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call(np.array([[0, 1, 1]]))


GRID = np.linspace(0.0, 1.0, 5)

# (entry point, matrix name in the message, call with the bad matrix)
MATRICES = [
    ("delta_hat", "W", lambda m: delta_hat(CAL, m)),
    ("estimate_covariance", "W", lambda m: estimate_covariance(CAL, m, GRID)),
    ("delta_asy", "W", lambda m: delta_asy(CAL, m, m=1000)),
    ("adaptive_threshold", "W", lambda m: adaptive_threshold(CAL, m, 0.1, REPORT)),
    ("optimistic_threshold", "W", lambda m: optimistic_threshold(CAL, m, 0.1, REPORT)),
    ("omega_matrix", "W", lambda m: omega_matrix(m, BETA)),
    ("b_term", "W", lambda m: b_term(2, 100, BETA, m)),
    ("delta_fs", "W", lambda m: delta_fs(100, 2, m, 0.1)),
    ("delta_star_star_bound", "W", lambda m: delta_star_star_bound(100, 2, m)),
    ("transition_from_matrix", "T", transition_from_matrix),
    ("TransitionMatrix-T", "T", lambda m: TransitionMatrix(T=m, W=W)),
    ("TransitionMatrix-W", "W", lambda m: TransitionMatrix(T=W, W=m)),
    ("upper_bound_diagnostics", "t", lambda m: _diagnostics(t=m)),
]

BAD_MATRICES = {
    "nan": ([[math.nan, 0.0], [0.0, 1.0]], "entries must be finite"),
    "inf": ([[1.0, math.inf], [0.0, 1.0]], "entries must be finite"),
    "-inf": ([[1.0, 0.0], [-math.inf, 1.0]], "entries must be finite"),
    "bool": (True, r"must be .*, got shape \(\)"),
    "str": ("eye", "must be a real matrix, got str"),
    "vector": ([1.0, 0.0], r"must be .*, got shape \(2,\)"),
    "2x3": (np.ones((2, 3)), r"must be .*, got shape \(2, 3\)"),
}


@pytest.mark.parametrize("kind", list(BAD_MATRICES))
@pytest.mark.parametrize(
    "call, name", [pytest.param(call, name, id=entry) for entry, name, call in MATRICES]
)
def test_bad_matrix_raises_invalid_spec_naming_it(call, name, kind):
    matrix, message = BAD_MATRICES[kind]
    with pytest.raises(InvalidSpec, match=f"^{name} {message}"):
        call(matrix)


# (entry point, argument name, call with a bare array in place of the object)
OBJECTS = [
    ("standard_threshold", "cal", lambda a: standard_threshold(a, 0.1)),
    ("adaptive_threshold", "cal", lambda a: adaptive_threshold(a, W, 0.1, REPORT)),
    ("optimistic_threshold", "cal", lambda a: optimistic_threshold(a, W, 0.1, REPORT)),
    ("adaptive_threshold", "delta", lambda a: adaptive_threshold(CAL, W, 0.1, a)),
    ("optimistic_threshold", "delta", lambda a: optimistic_threshold(CAL, W, 0.1, a)),
    ("delta_hat", "cal", lambda a: delta_hat(a, W)),
    ("estimate_covariance", "cal", lambda a: estimate_covariance(a, W, GRID)),
    ("delta_asy", "cal", lambda a: delta_asy(a, W, m=1000)),
    ("sample_noisy_labels", "tm", lambda a: sample_noisy_labels([0, 1], a, seed=0)),
    ("build_transition", "spec", build_transition),
    ("closed_form_inverse", "spec", closed_form_inverse),
    ("delta_fs_special", "spec", lambda a: delta_fs_special(a, 100, 0.1)),
]


@pytest.mark.parametrize(
    "call, name",
    [pytest.param(call, name, id=f"{entry}-{name}") for entry, name, call in OBJECTS],
)
def test_wrong_object_type_raises_invalid_spec_naming_it(call, name):
    # each raised AttributeError on the array
    with pytest.raises(InvalidSpec, match=f"^{name} must be a [A-Za-z]+, got ndarray"):
        call(SCORES)


@pytest.mark.parametrize("rule", [adaptive_threshold, optimistic_threshold])
def test_threshold_rules_refuse_nan_w_instead_of_falling_back_to_one(rule):
    # a NaN W made Delta_hat NaN, every rank failed the index-set test and
    # tau fell back to 1 with set_I_empty and no error
    with pytest.raises(InvalidSpec, match="W entries must be finite"):
        rule(CAL, [[math.nan, 0.0], [0.0, 1.0]], 0.1, REPORT)


def test_delta_asy_refuses_nan_w_before_the_eigensolver():
    # a NaN W reached the covariance and surfaced as NumPy's LinAlgError
    with pytest.raises(InvalidSpec, match="W entries must be finite"):
        delta_asy(CAL, [[math.nan, 0.0], [0.0, 1.0]], m=1000)
