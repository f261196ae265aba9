"""Golden outputs of ``noisycal calibrate`` and ``noisycal synth-experiment``.

The inputs are drawn from fixed seeds when the tests run, through
``generate``, ``train_softmax`` and ``write_probability_csv``, so no data file
is committed.  The runs are ``calibrate --model`` for each family with every
method (with ``--test`` and ``--randomized``), ``calibrate --transition`` with
a matrix whose inverse has no block form (the Massart LP), and one
``synth-experiment`` with all five methods.  Each run pins:

* tau and ``i_hat`` exactly, and the SHA-256 of ``prediction_sets.csv``;
* the correction ``value`` and ``branch_values`` to a relative tolerance:
  1e-12 for the closed forms, 1e-9 for the Massart LP, and 1e-5 for
  ``adaptive-asy`` and ``adaptive-plus``, whose seeded float32
  Gaussian-supremum ladder may round differently on another BLAS;
* the SHA-256 of ``results.csv`` and ``summary.csv`` only where every number
  in them is exact.  ``delta_value`` is written as ``repr``, so a row with a
  correction is pinned through its cells instead.

``threshold.json`` is not pinned whole, so that fields can be added to it.
A change that moves a pinned number on purpose updates it here and adds a
CHANGES.md line that says which value moved, by how much and why.  A SHA-256
is pinned by its first 16 hex digits.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from noisycal import (
    ContaminationSpec,
    SynthConfig,
    TransitionMatrix,
    build_transition,
    generate,
    predict_probs,
    sample_noisy_labels,
    train_softmax,
)
from noisycal.cli import METHODS, main
from noisycal.fileio import write_probability_csv

SEED = 2026
K = 4
N_TRAIN, N_CAL = 400, 1000
# 1e-10 below a rank boundary of the standard rule: (N_CAL + 1)(1 - ALPHA) is
# 901 + 1.001e-7, so an alpha that moves by 1e-9 moves the standard rank
ALPHA = 100 / 1001 - 1e-10
FAMILIES = {
    "rr": ["--model", "rr", "--eps", "0.2"],
    "two_level_rr": ["--model", "two_level_rr", "--eps", "0.2", "--nu", "0.5"],
    "block_rr": ["--model", "block_rr", "--eps", "0.2", "--b", "2"],
}
# column-stochastic, and its inverse has no block form
DENSE_T = np.array(
    [
        [0.80, 0.05, 0.10, 0.02],
        [0.10, 0.85, 0.05, 0.08],
        [0.06, 0.04, 0.75, 0.10],
        [0.04, 0.06, 0.10, 0.80],
    ]
)
DENSE_METHODS = ("standard", "adaptive-fs", "adaptive-asy", "adaptive-plus")
SYNTH = dict(k=K, d=4, n_train=300, n_cal=400, n_test=200, family="block_rr")
SYNTH |= dict(eps=0.2, b=2, methods=list(METHODS), repetitions=2, seed=SEED)

# relative tolerance of the correction, by method; the LP's replaces the
# closed form's for adaptive-fs on DENSE_T
REL = {
    "adaptive-fs": 1e-12,
    "adaptive-fs-simplified": 1e-12,
    "adaptive-asy": 1e-5,
    "adaptive-plus": 1e-5,
}
LP_REL = 1e-9

# (channel, method): (tau, i_hat, correction value, branch_values,
#                     prediction_sets.csv SHA-256, results.csv SHA-256 or None)
CALIBRATE = {
    ("rr", "standard"): (
        0.9520389949666263, 902, None,
        None,
        "72f2a98ebf755ac7", "2f3201f89a849005",
    ),
    ("rr", "adaptive-fs"): (
        0.9202726349863697, 861, 0.019651606463089062,
        {"chaining": 0.019651606463089062, "massart": 0.019651606463089062},
        "facd34dd5920fa00", None,
    ),
    ("rr", "adaptive-fs-simplified"): (
        0.9202726349863697, 861, 0.019651606463089062,
        {"chaining": 0.019651606463089062, "massart": 0.019651606463089062},
        "facd34dd5920fa00", None,
    ),
    ("rr", "adaptive-asy"): (
        0.9275262872518827, 874, 0.03327585733327156,
        None,
        "f2f4f3d4cfca3346", None,
    ),
    ("rr", "adaptive-plus"): (
        0.9275262872518827, 874, 0.03327585733327156,
        None,
        "f2f4f3d4cfca3346", None,
    ),
    ("two_level_rr", "standard"): (
        0.9527725847714738, 902, None,
        None,
        "c72c080c6b4a4453", "f9e7fca601b724e7",
    ),
    ("two_level_rr", "adaptive-fs"): (
        0.9296820917968843, 880, 0.03366533544764304,
        {"chaining": 0.3918405335920391, "massart": 0.03366533544764304},
        "7b1e7effb5b5ab62", None,
    ),
    ("two_level_rr", "adaptive-fs-simplified"): (
        0.9438133311014917, 893, 0.042220284859116705,
        {"chaining": 0.7640294607209868, "massart": 0.042220284859116705},
        "9488ff880af92014", None,
    ),
    ("two_level_rr", "adaptive-asy"): (
        0.9282111588442232, 878, 0.032233369209299506,
        None,
        "435d7e14bc4389a5", None,
    ),
    ("two_level_rr", "adaptive-plus"): (
        0.9282111588442232, 878, 0.032233369209299506,
        None,
        "435d7e14bc4389a5", None,
    ),
    ("block_rr", "standard"): (
        0.9520389949666263, 902, None,
        None,
        "72f2a98ebf755ac7", "2f3201f89a849005",
    ),
    ("block_rr", "adaptive-fs"): (
        0.9527292769005207, 904, 0.0448763186352862,
        {"chaining": 0.6895916752951972, "massart": 0.0448763186352862},
        "c8861c64413fad8f", None,
    ),
    ("block_rr", "adaptive-fs-simplified"): (
        0.957679731321453, 919, 0.060275227575938804,
        {"chaining": 1.3595317441273054, "massart": 0.060275227575938804},
        "10cdfaec65ffe028", None,
    ),
    ("block_rr", "adaptive-asy"): (
        0.9340494934834948, 884, 0.031529298200396974,
        None,
        "3815fcaa3a56655f", None,
    ),
    ("block_rr", "adaptive-plus"): (
        0.9340494934834948, 884, 0.031529298200396974,
        None,
        "3815fcaa3a56655f", None,
    ),
    ("dense", "standard"): (
        0.9999999999999999, 902, None,
        None,
        "0f3ac4b472b36973", "77bedea89a3ea74a",
    ),
    ("dense", "adaptive-fs"): (
        0.9995108471104706, 891, 0.05464277224600258,
        {"chaining": 0.8786644154486556, "massart": 0.05464277224600258},
        "491574256bd77437", None,
    ),
    ("dense", "adaptive-asy"): (
        0.9895428319213009, 858, 0.036149504322667204,
        None,
        "7c30eab52a9c41db", None,
    ),
    ("dense", "adaptive-plus"): (
        0.9895428319213009, 858, 0.036149504322667204,
        None,
        "7c30eab52a9c41db", None,
    ),
}

# (seed, method): (tau_hat, delta_value) of each results.csv row
SYNTH_ROWS = {
    (2026, "standard"): (0.9044215077128746, 0.0),
    (2026, "adaptive-fs"): (0.9425808538197761, 0.06874192591390473),
    (2026, "adaptive-fs-simplified"): (0.9812134172507583, 0.09109991799956528),
    (2026, "adaptive-asy"): (0.9043683990434338, 0.04942465149846006),
    (2026, "adaptive-plus"): (0.9043683990434338, 0.04942465149846006),
    (2027, "standard"): (0.9154224073113282, 0.0),
    (2027, "adaptive-fs"): (0.9865373329008184, 0.06874192591390473),
    (2027, "adaptive-fs-simplified"): (0.9943139570730405, 0.09109991799956528),
    (2027, "adaptive-asy"): (0.9761254741846699, 0.04960541127135411),
    (2027, "adaptive-plus"): (0.9154224073113282, 0.04960541127135411),
}
SYNTH_SUMMARY = "bbe7beec4f8e44f1"



def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Calibration rows with noisy labels from each channel, test rows and
    the DENSE_T file, from one softmax model fitted to synthetic data."""
    root = tmp_path_factory.mktemp("golden")
    config = SynthConfig(k=K, d=4, n_train=N_TRAIN, n_cal=N_CAL, n_test=300, seed=SEED)
    x, y = generate(config)
    model = train_softmax(x[:N_TRAIN], y[:N_TRAIN], n_classes=K)
    probs, y = predict_probs(model, x[N_TRAIN:]), y[N_TRAIN:]
    write_probability_csv(str(root / "test.csv"), probs[N_CAL:], y_true=y[N_CAL:])
    channels = {
        f: build_transition(ContaminationSpec(family=f, k=K, eps=0.2, nu=0.5, b=2))
        for f in FAMILIES
    }
    channels["dense"] = TransitionMatrix(DENSE_T)
    for i, (name, tm) in enumerate(channels.items()):
        noisy = sample_noisy_labels(y[:N_CAL], tm, seed=SEED + i)
        path = str(root / f"{name}.csv")
        write_probability_csv(path, probs[:N_CAL], y_noisy=noisy, y_true=y[:N_CAL])
    np.savetxt(str(root / "t.csv"), DENSE_T, delimiter=",", fmt="%.17g")
    return root


def observe_calibrate(inputs, out, channel, method):
    """The pinned record of one ``calibrate`` run, as CALIBRATE holds it."""
    argv = ["calibrate", "--scores", str(inputs / f"{channel}.csv")]
    argv += ["--alpha", repr(ALPHA)]
    if channel == "dense":
        argv += ["--transition", str(inputs / "t.csv")]
    else:
        argv += FAMILIES[channel]
        argv += ["--test", str(inputs / "test.csv"), "--randomized", "--seed", "7"]
    assert main(argv + ["--method", method, "--out", str(out)]) == 0
    record = json.loads((out / "threshold.json").read_text())
    correction = record["correction"] or {}
    return (
        record["tau"],
        record["i_hat"],
        correction.get("value"),
        correction.get("branch_values"),
        _sha(out / "prediction_sets.csv"),
        _sha(out / "results.csv") if method == "standard" else None,
    )


def observe_synth(inputs):
    """The results rows and the summary digest of the SYNTH experiment."""
    out = inputs / "synth"
    config = inputs / "synth.json"
    config.write_text(json.dumps(SYNTH | {"out": str(out)}))
    assert main(["synth-experiment", "--config", str(config)]) == 0
    with open(out / "results.csv", newline="") as handle:
        rows = {
            (int(row["seed"]), row["method"]): (
                float(row["tau_hat"]),
                float(row["delta_value"]),
            )
            for row in csv.DictReader(handle)
        }
    return rows, _sha(out / "summary.csv")


def _close(actual, expected, rel):
    """actual == expected, each number to ``rel``, dict keys and None exactly."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        for key, value in expected.items():
            _close(actual[key], value, rel)
    elif expected is None:
        assert actual is None
    else:
        assert actual == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize(
    "channel, method",
    [(c, m) for c in FAMILIES for m in METHODS] + [("dense", m) for m in DENSE_METHODS],
)
def test_calibrate_outputs_are_golden(inputs, tmp_path, channel, method):
    tau, i_hat, value, branches, sets, results = observe_calibrate(
        inputs, tmp_path, channel, method
    )
    e_tau, e_i_hat, e_value, e_branches, e_sets, e_results = CALIBRATE[channel, method]
    assert (tau, i_hat, sets, results) == (e_tau, e_i_hat, e_sets, e_results)
    rel = LP_REL if channel == "dense" and method == "adaptive-fs" else REL.get(method)
    _close(value, e_value, rel)
    _close(branches, e_branches, rel)


def test_synth_experiment_outputs_are_golden(inputs):
    rows, summary = observe_synth(inputs)
    assert rows.keys() == SYNTH_ROWS.keys()
    for (seed, method), (e_tau, e_delta) in SYNTH_ROWS.items():
        tau, delta = rows[seed, method]
        assert tau == e_tau, (seed, method)
        _close(delta, e_delta, REL.get(method, 0.0))
    assert summary == SYNTH_SUMMARY
