"""Bad input at the public boundary: every entry point that takes alpha, a
bounded real scalar, a real array, a label vector, a W/T matrix or one of the
record types raises the typed error of its one checker, and the message names
the argument; any bad argument to a public computation either works or raises
a NoisycalError."""

import json
import math
import os

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
    NoisycalError,
    SoftmaxModel,
    SynthConfig,
    TransitionMatrix,
    adaptive_threshold,
    aps_scores,
    b_term,
    build_transition,
    c_of_n,
    closed_form_inverse,
    cn_envelope,
    delta_asy,
    delta_fs,
    delta_fs_special,
    delta_hat,
    delta_star_star_bound,
    estimate_covariance,
    evaluate,
    generate,
    omega_matrix,
    optimistic_threshold,
    predict_probs,
    prediction_sets,
    sample_noisy_labels,
    standard_threshold,
    train_softmax,
    transition_from_matrix,
    upper_bound_diagnostics,
    validate_probability_rows,
)
from noisycal.cli import (
    ExperimentConfig,
    correction_report,
    read_experiment_config,
    run_from_scores,
    run_synthetic,
)
from noisycal.fileio import (
    read_probability_csv,
    read_transition_csv,
    write_prediction_sets_csv,
    write_probability_csv,
    write_results_csv,
    write_summary_csv,
    write_threshold_json,
)

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
    (
        "SoftmaxModel",
        "iterations",
        lambda v: SoftmaxModel(weights=np.zeros((2, 2)), iterations=v, final_loss=0.0),
        [-1],
    ),
    (
        "SoftmaxModel",
        "final_loss",
        lambda v: SoftmaxModel(weights=np.zeros((2, 2)), iterations=0, final_loss=v),
        [],
    ),
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
    "ragged": ([[0, 1], [1]], "must be a real array: "),
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
    "str": ("eye", "must be a real array, got str"),
    "none": (None, "must be a real array, got NoneType"),
    "ragged": ([[1.0, 0.0], [1.0]], "must be a real array: "),
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
    ("generate", "config", generate),
    ("predict_probs", "model", lambda a: predict_probs(a, X3)),
    ("omega_matrix", "beta", lambda a: omega_matrix(W, a)),
    ("b_term", "beta", lambda a: b_term(2, 100, a, W)),
    ("correction_report", "variant", lambda a: correction_report(RR2, 100, variant=a)),
    ("ExperimentConfig.from_dict", "raw", ExperimentConfig.from_dict),
    ("run_synthetic", "config", run_synthetic),
]


@pytest.mark.parametrize(
    "call, name",
    [pytest.param(call, name, id=f"{entry}-{name}") for entry, name, call in OBJECTS],
)
def test_wrong_object_type_raises_invalid_spec_naming_it(call, name):
    # each raised AttributeError on the array
    with pytest.raises(InvalidSpec, match=f"^{name} must be a [A-Za-z]+, got ndarray"):
        call(SCORES)


X3_MODEL = SoftmaxModel(weights=np.zeros((2, 2)), iterations=0, final_loss=0.0)

# (entry point, argument name in the message, call with the bad array, a
#  valid value of the argument)
ARRAYS = [
    ("CalibrationSet", "scores", lambda a: CalibrationSet(a, [0, 1, 1]), SCORES),
    ("prediction_sets", "scores", lambda a: prediction_sets(a, 0.5), SCORES),
    ("aps_scores", "probs", aps_scores, T),
    ("validate_probability_rows", "probs", validate_probability_rows, T),
    ("BetaVector", "betas", lambda a: BetaVector(beta0=1.0, betas=a), np.zeros(2)),
    ("estimate_covariance", "grid", lambda a: estimate_covariance(CAL, W, a), GRID),
    (
        "delta_asy",
        "h_ladder",
        lambda a: delta_asy(CAL, W, h_ladder=a, m=1000),
        np.array([0.1, 0.05]),
    ),
    ("upper_bound_diagnostics", "rho", lambda a: _diagnostics(rho=a), RHO),
    ("upper_bound_diagnostics", "rho_tilde", lambda a: _diagnostics(rho_tilde=a), RHO),
    (
        "SoftmaxModel",
        "weights",
        lambda a: SoftmaxModel(weights=a, iterations=0, final_loss=0.0),
        np.zeros((2, 2)),
    ),
    ("train_softmax", "x", lambda a: train_softmax(a, [0, 1, 1]), X3),
    ("predict_probs", "x", lambda a: predict_probs(X3_MODEL, a), X3),
    ("evaluate", "sets", lambda a: evaluate(a, [0, 1, 1]), SCORES <= 0.5),
]

NOT_ARRAYS = {
    "str": ("x", ", got str"),
    "none": (None, ", got NoneType"),
    "dict": ({}, ", got dict"),
    "object": (object(), ", got object"),
    "str-list": (["0.1", "0.2"], ", got list"),
    "ragged": ([[0.1, 0.2], [0.3]], ": setting an array element with a sequence"),
}


@pytest.mark.parametrize("kind", list(NOT_ARRAYS))
@pytest.mark.parametrize(
    "call, name",
    [pytest.param(call, name, id=f"{entry}-{name}") for entry, name, call, _ in ARRAYS],
)
def test_non_array_raises_invalid_spec_naming_it(call, name, kind):
    # each raised a bare ValueError, TypeError or AttributeError from NumPy
    value, message = NOT_ARRAYS[kind]
    with pytest.raises(InvalidSpec, match=f"^{name} must be a real array{message}"):
        call(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, name, valid",
    [
        pytest.param(call, name, valid, id=f"{entry}-{name}")
        for entry, name, call, valid in ARRAYS
        if valid.dtype != bool
    ],
)
def test_non_finite_array_entry_raises_invalid_spec_naming_it(call, name, valid, bad):
    # predict_probs turned a NaN or infinite feature into NaN probabilities
    a = valid.astype(np.float64)
    a.flat[-1] = bad
    last = f"entry {a.size - 1}"
    if a.ndim == 2:
        last = f"row {a.shape[0] - 1}, column {a.shape[1] - 1}"
    message = rf"^{name} entries must be finite; {last} \(0-based\) is {bad}"
    with pytest.raises(InvalidSpec, match=message):
        call(a)


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


# Every public computation, called once with valid arguments: each argument
# is replaced in turn by each value of BAD_VALUES, and the call must either
# succeed or raise a NoisycalError, never a bare NumPy or Python error.
BAD_VALUES = {
    "str": "x",
    "none": None,
    "ragged": [[0.1, 0.2], [0.3]],
    "nan": math.nan,
    "dict": {},
    "minus-one": -1,
    "object": object(),
}

BLOCK4 = ContaminationSpec(family="block_rr", k=4, eps=0.1, b=2)
TM = build_transition(RR2)
SYNTH = SynthConfig(**SIZES, seed=0)
EXPERIMENT = dict(
    **SIZES,
    clusters_per_class=2,
    cube_side=2.0,
    imbalance_mu=0.0,
    family="rr",
    eps=0.1,
    nu=0.0,
    b=None,
    alpha=0.1,
    methods=("standard",),
    repetitions=1,
    seed=0,
    out=None,
    randomized_scores=False,
)

# (callable, its valid keyword arguments)
VALID_CALLS = [
    (standard_threshold, dict(cal=CAL, alpha=0.1)),
    (adaptive_threshold, dict(cal=CAL, w=W, alpha=0.1, delta=REPORT)),
    (optimistic_threshold, dict(cal=CAL, w=W, alpha=0.1, delta=REPORT)),
    (prediction_sets, dict(scores=SCORES, tau=0.5)),
    (evaluate, dict(sets=SCORES <= 0.5, true_labels=[0, 1, 1])),
    (BetaVector, dict(beta0=1.0, betas=np.zeros(2))),
    (CorrectionReport, dict(method=CorrectionMethod.CN_ONLY, value=0.0)),
    (b_term, dict(k=2, n=100, beta=BETA, w=W)),
    (c_of_n, dict(n=100)),
    (cn_envelope, dict(n=100)),
    (delta_asy, dict(cal=CAL, w=W, h_ladder=(1 / 10, 1 / 20), m=1000, seed=0)),
    (delta_fs, dict(n=100, k=2, w=W, c_n=0.1)),
    (delta_fs_special, dict(spec=RR2, n=100, c_n=0.1)),
    (delta_star_star_bound, dict(n=100, k=2, w=W)),
    (estimate_covariance, dict(cal=CAL, w=W, grid=GRID)),
    (omega_matrix, dict(w=W, beta=BETA)),
    (
        upper_bound_diagnostics,
        dict(
            n=100, k=2, t=T, rho=RHO, rho_tilde=RHO, delta_n=0.1, delta_ss_n=0.1, alpha=0.1
        ),
    ),
    (CalibrationSet, dict(scores=SCORES, noisy_labels=[0, 1, 1])),
    (delta_hat, dict(cal=CAL, w=W)),
    (ContaminationSpec, dict(family="block_rr", k=4, eps=0.1, nu=0.0, b=2)),
    (TransitionMatrix, dict(T=T, W=np.linalg.inv(T))),
    (build_transition, dict(spec=BLOCK4)),
    (closed_form_inverse, dict(spec=BLOCK4)),
    (sample_noisy_labels, dict(true_labels=[0, 1, 1], tm=TM, seed=0)),
    (transition_from_matrix, dict(t=T)),
    (aps_scores, dict(probs=T, randomized=True, seed=0)),
    (validate_probability_rows, dict(probs=T)),
    (SoftmaxModel, dict(weights=np.zeros((2, 2)), iterations=0, final_loss=0.0)),
    (
        SynthConfig,
        dict(**SIZES, clusters_per_class=2, cube_side=2.0, imbalance_mu=0.0, seed=0),
    ),
    (generate, dict(config=SYNTH)),
    (predict_probs, dict(model=X3_MODEL, x=X3)),
    (train_softmax, dict(x=X3, y=[0, 1, 1], n_classes=2)),
    (ExperimentConfig, EXPERIMENT),
    (ExperimentConfig.from_dict, dict(raw=EXPERIMENT)),
    (run_synthetic, dict(config=ExperimentConfig(**EXPERIMENT))),
    (correction_report, dict(spec=RR2, n=100, variant="fs")),
]


@pytest.mark.parametrize(
    "call, kwargs, name, bad",
    [
        pytest.param(call, kwargs, name, bad, id=f"{call.__qualname__}-{name}-{kind}")
        for call, kwargs in VALID_CALLS
        for name in kwargs
        for kind, bad in BAD_VALUES.items()
    ],
)
def test_bad_argument_succeeds_or_raises_a_typed_error(call, kwargs, name, bad):
    try:
        call(**(kwargs | {name: bad}))
    except NoisycalError:
        pass


@pytest.mark.parametrize(
    "call, kwargs", [pytest.param(c, k, id=c.__qualname__) for c, k in VALID_CALLS]
)
def test_each_valid_call_succeeds(call, kwargs):
    call(**kwargs)


# The file readers and writers, each run in a directory that holds FILES:
# every path argument, and every argument of the writers that convert
# arrays, takes each value of BAD_VALUES in turn.  A refused call must leave
# the directory as it was.
FILES = {
    "cal.csv": "p_1,p_2,y_noisy,y_true\n0.2,0.8,1,2\n0.6,0.4,2,1\n0.9,0.1,1,1\n",
    "t.csv": "0.9,0.1\n0.1,0.9\n",
    "config.json": json.dumps(EXPERIMENT),
}
RUN = dict(scores_path="cal.csv", method="standard")

# (callable, its valid keyword arguments, the arguments to replace)
FILE_CALLS = [
    (read_probability_csv, dict(path="cal.csv"), ["path"]),
    (read_transition_csv, dict(path="t.csv"), ["path"]),
    (read_experiment_config, dict(path="config.json"), ["path"]),
    (
        write_probability_csv,
        dict(path="new.csv", probs=T, y_noisy=[0, 1], y_true=[1, 1]),
        ["path", "probs", "y_noisy", "y_true"],
    ),
    (
        write_prediction_sets_csv,
        dict(path="new.csv", sets=SCORES <= 0.5, tau=0.5),
        ["path", "sets", "tau"],
    ),
    (write_results_csv, dict(path="new.csv", rows=[]), ["path"]),
    (write_summary_csv, dict(path="new.csv", rows=[]), ["path"]),
    (
        write_threshold_json,
        dict(path="new.json", result=standard_threshold(CAL, 0.1)),
        ["path", "result"],
    ),
    (
        run_from_scores,
        RUN | dict(model="rr", eps=0.1, test_path="cal.csv", out="new"),
        ["scores_path", "test_path", "out"],
    ),
    (run_from_scores, RUN | dict(transition_path="t.csv"), ["transition_path"]),
]


@pytest.fixture
def file_dir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "call, kwargs, name, bad",
    [
        pytest.param(call, kwargs, name, bad, id=f"{call.__qualname__}-{name}-{kind}")
        for call, kwargs, names in FILE_CALLS
        for name in names
        for kind, bad in BAD_VALUES.items()
    ],
)
def test_bad_file_argument_succeeds_or_raises_a_typed_error(
    file_dir, call, kwargs, name, bad
):
    try:
        call(**(kwargs | {name: bad}))
    except NoisycalError:
        assert sorted(os.listdir(file_dir)) == sorted(FILES)


@pytest.mark.parametrize(
    "call, kwargs",
    [pytest.param(c, k, id=c.__qualname__) for c, k, _ in FILE_CALLS],
)
def test_each_valid_file_call_succeeds(file_dir, call, kwargs):
    call(**kwargs)


@pytest.mark.parametrize(
    "call, args",
    [
        pytest.param(read_probability_csv, (), id="read_probability_csv"),
        pytest.param(read_transition_csv, (), id="read_transition_csv"),
        pytest.param(read_experiment_config, (), id="read_experiment_config"),
        pytest.param(
            lambda fd: run_from_scores(fd, model="rr"), (), id="run_from_scores"
        ),
        pytest.param(write_results_csv, ([],), id="write_results_csv"),
        pytest.param(write_summary_csv, ([],), id="write_summary_csv"),
        pytest.param(write_probability_csv, (T,), id="write_probability_csv"),
        pytest.param(
            write_prediction_sets_csv,
            (SCORES <= 0.5, 0.5),
            id="write_prediction_sets_csv",
        ),
        pytest.param(
            write_threshold_json,
            (standard_threshold(CAL, 0.1),),
            id="write_threshold_json",
        ),
    ],
)
def test_file_descriptor_path_is_refused_and_left_open(file_dir, call, args):
    # open() takes an int as a file descriptor: the readers parsed the file
    # behind it, the writers wrote to it, and both closed it
    fd = os.open("cal.csv", os.O_RDWR)
    try:
        with pytest.raises(InvalidSpec, match="must be a str or os.PathLike, got int$"):
            call(fd, *args)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert (file_dir / "cal.csv").read_text() == FILES["cal.csv"]
