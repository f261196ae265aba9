"""Tests for the experiment driver and the command-line interface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from noisycal import (
    BetaVector,
    ContaminationSpec,
    CorrectionMethod,
    CorrectionReport,
    EmptyClass,
    Family,
    FileFormatError,
    InvalidSpec,
    SingularTransition,
    ThresholdResult,
    TransitionMatrix,
    aps_scores,
    c_of_n,
    cn_envelope,
    correction,
    delta_star_star_bound,
)
from noisycal import cli, noise_model
from noisycal.cli import (
    METHODS,
    ExperimentConfig,
    correction_report,
    main,
    read_experiment_config,
    run_from_scores,
    run_synthetic,
)
from noisycal.fileio import RESULTS_HEADER, read_transition_csv, write_probability_csv
from noisycal.noise_model import build_transition
from oracles import (
    NEAR_ONE,
    SKEWED_EPS,
    family_grid,
    ladder_spec,
    reference_family_matrix,
    skewed_channel,
    spy_svd,
)


def small_config(**kw):
    base = dict(
        k=2,
        d=4,
        n_train=200,
        n_cal=60,
        n_test=40,
        family="rr",
        eps=0.1,
        alpha=0.1,
        methods=("standard", "adaptive-fs"),
        repetitions=2,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def write_cal_csv(path, seed=0, n=10, k=2, with_true=False):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k), size=n)
    y_noisy = rng.integers(0, k, size=n)
    y_true = rng.integers(0, k, size=n) if with_true else None
    write_probability_csv(str(path), p, y_noisy=y_noisy, y_true=y_true)
    return p, y_noisy, y_true


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


def test_config_from_dict_roundtrip():
    cfg = ExperimentConfig.from_dict(
        {"k": 4, "d": 6, "n_train": 100, "n_cal": 50, "n_test": 50, "eps": 0.2}
    )
    assert cfg.k == 4 and cfg.eps == 0.2
    assert cfg.methods == ("standard",)


def test_config_rejects_unknown_keys():
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(
            {"k": 2, "d": 4, "n_train": 10, "n_cal": 10, "n_test": 10, "nope": 1}
        )


def test_config_rejects_unknown_method():
    with pytest.raises(InvalidSpec):
        small_config(methods=("standard", "bogus"))


def test_config_validation():
    with pytest.raises(InvalidSpec):
        small_config(repetitions=0)
    with pytest.raises(InvalidSpec):
        small_config(alpha=1.0)
    with pytest.raises(InvalidSpec):
        small_config(methods=())
    with pytest.raises(InvalidSpec):
        small_config(family="custom")
    for removed in ("asy_order", "asy_m"):
        with pytest.raises(InvalidSpec, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {"k": 2, "d": 4, "n_train": 10, "n_cal": 10, "n_test": 10, removed: 1}
            )


@pytest.mark.parametrize(
    "bad",
    [
        dict(eps=1.5),
        dict(family="block_rr", b=3, k=4),
        dict(d=0),
        dict(cube_side=math.nan),
        dict(imbalance_mu=math.inf),
        dict(imbalance_mu=math.nan),
    ],
    ids=[
        "eps-past-one",
        "b-not-dividing-k",
        "zero-dimensions",
        "nan-cube-side",
        "inf-imbalance",
        "nan-imbalance",
    ],
)
def test_config_checks_model_and_data_when_built(bad):
    # once accepted here and raised only while running, as "repetition 0: ..."
    with pytest.raises(InvalidSpec) as exc:
        small_config(**bad)
    assert "repetition" not in str(exc.value)


def test_config_builders():
    cfg = small_config(family="block_rr", b=2, eps=0.2)
    spec = cfg.contamination()
    assert spec.family is Family.BLOCK_RR and spec.b == 2
    synth = cfg.synth(seed=17)
    assert synth.seed == 17
    assert synth.n_total == cfg.n_train + cfg.n_cal + cfg.n_test


def test_read_experiment_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"k": 2, "d": 4, "n_train": 20, "n_cal": 10, "n_test": 10})
    )
    cfg = read_experiment_config(str(path))
    assert cfg.k == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_experiment_config(str(bad))
    with pytest.raises(FileFormatError):
        read_experiment_config(str(tmp_path / "missing.json"))


def test_config_that_is_not_an_object_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    message = f"{path} must hold a single JSON object"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        read_experiment_config(str(path))
    assert main(["synth-experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_with_a_byte_order_mark_is_read(tmp_path):
    # json.load refused it: "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    path = tmp_path / "cfg.json"
    text = json.dumps({"k": 2, "d": 4, "n_train": 20, "n_cal": 10, "n_test": 10})
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_experiment_config(str(path)).k == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"k": 2, "d": "\xff"}')
    with pytest.raises(FileFormatError, match="is not UTF-8 text"):
        read_experiment_config(str(path))
    assert main(["synth-experiment", "--config", str(path)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synthetic experiment driver
# ---------------------------------------------------------------------------


def test_run_synthetic_row_provenance(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out=str(out))
    result = run_synthetic(cfg)
    rows = result["rows"]
    assert len(rows) == cfg.repetitions * len(cfg.methods)
    for row in rows:
        assert set(RESULTS_HEADER) <= set(row)
        assert row["n"] == cfg.n_cal
        assert row["K"] == cfg.k
        assert 0.0 <= row["coverage"] <= 1.0
        assert 0.0 <= row["avg_size"] <= cfg.k
    assert {row["method"] for row in rows} == set(cfg.methods)
    assert (out / "results.csv").exists() and (out / "summary.csv").exists()
    summary = result["summary"]
    assert [s["method"] for s in summary] == list(cfg.methods)
    assert all(s["repetitions"] == cfg.repetitions for s in summary)


def test_run_synthetic_tags_the_failing_repetition(tmp_path, capsys):
    # two calibration rows cannot hold all three classes
    cfg = {"k": 3, "d": 4, "n_train": 150, "n_cal": 2, "n_test": 30, "eps": 0.1}
    cfg |= {"methods": ["adaptive-fs"], "repetitions": 2}
    with pytest.raises(EmptyClass, match="^class 1 has no calibration samples$") as exc:
        run_synthetic(ExperimentConfig(**cfg))
    assert exc.value.repetition == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: repetition 0: class 1 has no calibration samples\n"


def test_run_synthetic_out_may_be_a_path(tmp_path):
    # refused as "out must be a directory path", though run_from_scores and
    # every writer take an os.PathLike
    cfg = small_config(out=tmp_path / "out", methods=("standard",), repetitions=1)
    run_synthetic(cfg)
    assert (tmp_path / "out" / "results.csv").read_text().startswith("method,")
    assert (tmp_path / "out" / "summary.csv").read_text().startswith("method,")


def test_run_synthetic_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_synthetic(small_config(out=str(out_a)))
    run_synthetic(small_config(out=str(out_b)))
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_run_synthetic_seed_moves_results(tmp_path):
    a = run_synthetic(small_config(seed=1))
    b = run_synthetic(small_config(seed=2))
    assert a["rows"][0]["tau_hat"] != b["rows"][0]["tau_hat"]


# ---------------------------------------------------------------------------
# calibration from files
# ---------------------------------------------------------------------------


def test_run_from_scores_standard_hand_check(tmp_path):
    path = tmp_path / "cal.csv"
    p, y_noisy, _ = write_cal_csv(path, seed=4, n=10, k=2)
    result = run_from_scores(str(path), model="rr", eps=0.1, method="standard")
    own = aps_scores(p)[np.arange(10), y_noisy]
    # ceil(11 * 0.9) = 10, the largest own score
    assert result["threshold"].tau == float(np.sort(own)[-1])
    assert result["threshold"].i_hat == 10
    assert result["metrics"] is None
    assert len(result["sets"]) == 10


def test_run_from_scores_requires_noisy_labels(tmp_path):
    path = tmp_path / "cal.csv"
    write_probability_csv(str(path), np.array([[0.5, 0.5]]))
    with pytest.raises(FileFormatError):
        run_from_scores(str(path), model="rr", eps=0.1, method="standard")


def test_run_from_scores_needs_some_noise_model(tmp_path):
    path = tmp_path / "cal.csv"
    write_cal_csv(path)
    with pytest.raises(InvalidSpec):
        run_from_scores(str(path), method="standard", model=None, transition_path=None)


def test_run_from_scores_unknown_model_is_invalid_spec(tmp_path):
    path = tmp_path / "cal.csv"
    write_cal_csv(path)
    with pytest.raises(InvalidSpec, match="family must be one of"):
        run_from_scores(str(path), model="bogus", method="standard")


def test_run_from_scores_transition_file_matches_model(tmp_path):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=5, n=40, k=2)
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=2, eps=0.2)
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), build_transition(spec).T, delimiter=",", fmt="%.17g")
    kw = dict(method="adaptive-fs")
    via_model = run_from_scores(str(cal_path), model="rr", eps=0.2, **kw)
    via_file = run_from_scores(str(cal_path), transition_path=str(t_path), **kw)
    assert via_model["threshold"].tau == pytest.approx(
        via_file["threshold"].tau, abs=1e-12
    )


def test_family_routes_run_no_svd(tmp_path, monkeypatch):
    # a T of block form takes its condition number from its eigenvalues; an
    # SVD grows a fresh process by 0.8 MiB as it maps LAPACK code
    calls = spy_svd(monkeypatch)
    for spec in family_grid():
        build_transition(spec)
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=5, n=40, k=4)
    run_from_scores(str(cal_path), model="two_level_rr", eps=0.2, nu=0.2, method="adaptive-fs")
    correction_report(ContaminationSpec(family="block_rr", k=60, eps=0.2, b=6), 5000)
    assert calls == []
    np.linalg.cond(np.eye(2))
    assert calls == [(2, 2)]


@pytest.mark.parametrize("k", [4, 12])
def test_calibrate_takes_every_certified_near_singular_channel(tmp_path, capsys, k):
    # the family and skewed channels up to condition number 1e12, most of
    # which the absolute residual bound 1e-10 refused: calibrate returns a
    # threshold or exits with a typed error, never with a traceback
    cal_path, t_path = tmp_path / "cal.csv", tmp_path / "t.csv"
    write_cal_csv(cal_path, seed=k, n=60, k=k)
    channels = [
        reference_family_matrix(ladder_spec(family, k, one_minus_eps))
        for family in ("rr", "block_rr", "two_level_rr")
        for one_minus_eps in NEAR_ONE
    ]
    channels += [skewed_channel(k, eps) for eps in SKEWED_EPS]
    ran = 0
    for t in channels:
        try:
            TransitionMatrix(t)
        except SingularTransition:
            continue
        np.savetxt(str(t_path), t, delimiter=",", fmt="%.17g")
        argv = ["calibrate", "--scores", str(cal_path), "--transition", str(t_path)]
        code = main(argv + ["--method", "adaptive-fs"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: "), err
        ran += 1
    assert ran >= 80


def test_run_from_scores_refuses_an_unknown_method(tmp_path):
    path = tmp_path / "cal.csv"
    write_cal_csv(path)
    message = f"unknown method 'bogus'; valid: {list(METHODS)}"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        run_from_scores(str(path), model="rr", eps=0.1, method="bogus")


def test_run_from_scores_refuses_a_transition_file_of_another_k(tmp_path):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, k=2)
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=3, eps=0.2)
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), build_transition(spec).T, delimiter=",", fmt="%.17g")
    message = "^transition matrix is 3 x 3 but rows have 2 classes$"
    with pytest.raises(InvalidSpec, match=message):
        run_from_scores(str(cal_path), transition_path=str(t_path), method="standard")


@pytest.mark.parametrize(
    "flags",
    [dict(model="block_rr", eps=0.2, b=2), dict(model="two_level_rr", eps=0.2, nu=0.5)],
    ids=["block_rr", "two_level_rr"],
)
def test_simplified_method_takes_a_family_transition_file(tmp_path, flags):
    # the simplified correction reads W's own block form, so a family's T
    # from a file, as is and relabelled (score columns and noisy labels
    # permuted with it), gives the --model run's delta and tau; randomized
    # scores draw one uniform a row, so they permute with the columns
    k, n = 4, 2000
    options = dict(method="adaptive-fs-simplified", randomized=True, seed=3)
    p, y_noisy, _ = write_cal_csv(tmp_path / "cal.csv", seed=16, n=n, k=k)
    spec = ContaminationSpec(family=flags["model"], k=k, eps=0.2, nu=0.5, b=2)
    t = build_transition(spec).T
    pi = np.array([2, 0, 3, 1])
    inv = np.argsort(pi)
    assert not np.array_equal(t[np.ix_(inv, inv)], t)
    write_probability_csv(str(tmp_path / "cal_pi.csv"), p[:, inv], y_noisy=pi[y_noisy])
    np.savetxt(str(tmp_path / "t.csv"), t, delimiter=",", fmt="%.17g")
    np.savetxt(str(tmp_path / "t_pi.csv"), t[np.ix_(inv, inv)], delimiter=",", fmt="%.17g")
    want = run_from_scores(str(tmp_path / "cal.csv"), **flags, **options)["threshold"]
    assert want.tau < 1.0
    for cal, t_name in (("cal.csv", "t.csv"), ("cal_pi.csv", "t_pi.csv")):
        got = run_from_scores(
            str(tmp_path / cal), transition_path=str(tmp_path / t_name), **options
        )["threshold"]
        assert got.correction.value == pytest.approx(want.correction.value, rel=1e-12)
        assert (got.tau, got.i_hat) == (want.tau, want.i_hat)


def test_simplified_method_refuses_a_w_without_block_form(tmp_path, capsys):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=6, n=20, k=3)
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), dense_transition(3, 6), delimiter=",", fmt="%.17g")
    method = "adaptive-fs-simplified"
    with pytest.raises(InvalidSpec, match="needs a W of block form"):
        run_from_scores(str(cal_path), transition_path=str(t_path), method=method)
    argv = ["calibrate", "--scores", str(cal_path), "--transition", str(t_path)]
    assert main(argv + ["--method", method]) == 2
    assert "needs a W of block form" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["adaptive-fs", "adaptive-asy"])
def test_threshold_json_carries_the_channel_condition_number(tmp_path, method):
    # every correction report carries T's condition number, whether the
    # channel came from --model or from a dense --transition file (T as
    # read, its columns renormalized)
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=17, n=60, k=3)
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), dense_transition(3, 17), delimiter=",", fmt="%.17g")
    family = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=3, eps=0.2)
    runs = {
        "model": (["--model", "rr", "--eps", "0.2"], build_transition(family).T),
        "transition": (["--transition", str(t_path)], read_transition_csv(str(t_path)).T),
    }
    for name, (flags, t) in runs.items():
        out = tmp_path / name
        argv = ["calibrate", "--scores", str(cal_path), *flags, "--method", method]
        assert main(argv + ["--out", str(out)]) == 0
        blob = json.loads((out / "threshold.json").read_text())
        assert blob["correction"]["condition_number"] == TransitionMatrix(t).condition_number


def test_run_from_scores_writes_outputs(tmp_path):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=7, n=30, k=3, with_true=True)
    out = tmp_path / "out"
    result = run_from_scores(
        str(cal_path),
        model="rr",
        eps=0.1,
        method="adaptive-fs",
        out=str(out),
    )
    blob = json.loads((out / "threshold.json").read_text())
    assert blob["tau"] == result["threshold"].tau
    assert blob["method"] == "adaptive"
    assert blob["correction"]["method"] == "finite_sample"
    assert blob["correction"]["c_n"] == c_of_n(30)
    sets_csv = (out / "prediction_sets.csv").read_text().splitlines()
    assert len(sets_csv) == 31
    results_csv = (out / "results.csv").read_text().splitlines()
    assert len(results_csv) == 2
    assert result["metrics"] is not None


def test_run_from_scores_test_rows_and_mismatched_k(tmp_path):
    cal_path, test_path = tmp_path / "cal.csv", tmp_path / "test.csv"
    write_cal_csv(cal_path, seed=8, n=25, k=2)
    write_cal_csv(test_path, seed=9, n=7, k=2, with_true=True)
    result = run_from_scores(
        str(cal_path), model="rr", eps=0.1, method="standard", test_path=str(test_path)
    )
    assert len(result["sets"]) == 7
    assert result["metrics"].keys() == {"coverage", "avg_size"}
    # the calibration rows' true labels do not evaluate the test rows
    result = run_from_scores(
        str(test_path), model="rr", eps=0.1, method="standard", test_path=str(cal_path)
    )
    assert len(result["sets"]) == 25
    assert result["metrics"] is None
    bad3 = tmp_path / "bad3.csv"
    write_cal_csv(bad3, seed=10, n=5, k=3)
    with pytest.raises(InvalidSpec):
        run_from_scores(
            str(cal_path), model="rr", eps=0.1, method="standard", test_path=str(bad3)
        )


def test_run_from_scores_reads_test_rows_before_the_correction(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the correction ran before the test rows were read")

    monkeypatch.setattr(cli, "delta_asy", refuse)
    cal_path, test_path = tmp_path / "cal.csv", tmp_path / "test.csv"
    write_cal_csv(cal_path, seed=16, n=20, k=2)
    test_path.write_text("p_1,p_2,y_true\n0.5,half,1\n")
    with pytest.raises(FileFormatError, match="line 2"):
        run_from_scores(
            str(cal_path),
            model="rr",
            eps=0.1,
            method="adaptive-asy",
            test_path=str(test_path),
        )


def test_run_from_scores_score_header_skips_aps(tmp_path):
    # s_* rows are used as-is; p_* rows of the same numbers are transformed
    path_s, path_p = tmp_path / "s.csv", tmp_path / "p.csv"
    rng = np.random.default_rng(11)
    values = np.sort(rng.uniform(size=(12, 2)), axis=1)
    values[:, -1] = 1.0
    y = rng.integers(0, 2, size=12)
    np.savetxt(
        str(path_s),
        np.column_stack([values, y + 1]),
        delimiter=",",
        fmt="%.17g",
        header="s_1,s_2,y_noisy",
        comments="",
    )
    write_probability_csv(str(path_p), values / values.sum(axis=1, keepdims=True), y_noisy=y)
    res_s = run_from_scores(str(path_s), model="rr", eps=0.0, method="standard")
    own = values[np.arange(12), y]
    assert res_s["threshold"].tau == float(np.sort(own)[math.ceil(13 * 0.9) - 1])


def test_run_from_scores_randomized_deterministic_in_seed(tmp_path):
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=12, n=30, k=3)
    kw = dict(model="rr", eps=0.1, method="standard", randomized=True)
    a = run_from_scores(str(path), seed=5, **kw)
    b = run_from_scores(str(path), seed=5, **kw)
    c = run_from_scores(str(path), seed=6, **kw)
    assert a["threshold"].tau == b["threshold"].tau
    assert a["threshold"].tau != c["threshold"].tau


# ---------------------------------------------------------------------------
# correction report helper
# ---------------------------------------------------------------------------


def test_correction_report_variants():
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=0.1)
    cn = correction_report(spec, 500, variant="cn")
    assert cn.value == cn.c_n == c_of_n(500)
    assert cn.condition_number is not None and cn.condition_number >= 1.0
    fs = correction_report(spec, 500, variant="fs")
    assert fs.value == pytest.approx(c_of_n(500), abs=1e-6)
    assert fs.c_n == c_of_n(500)
    simp = correction_report(spec, 500, variant="simplified")
    assert simp.c_n == c_of_n(500)
    assert fs.value <= simp.value + 1e-9
    with pytest.raises(InvalidSpec):
        correction_report(spec, 500, variant="bogus")
    with pytest.raises(InvalidSpec):
        correction_report(spec, 0)
    with pytest.raises(InvalidSpec, match="n must be an integer"):
        correction_report(spec, 500.0)


@pytest.fixture
def t_readings(monkeypatch):
    """The shape of every matrix whose block form noise_model reads."""
    readings = []
    real = noise_model._block_form

    def spy(a, *args, **kwargs):
        readings.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(noise_model, "_block_form", spy)
    return readings


@pytest.mark.parametrize("variant", ["fs", "simplified", "cn"])
def test_correction_report_reads_t_once(variant, t_readings):
    # the report builds its channel once and every variant takes that
    # channel, so T's block form is read once whatever the variant
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.2, b=2)
    correction_report(spec, 500, variant=variant)
    assert t_readings == [(4, 4)]


@pytest.mark.parametrize("method", METHODS)
def test_calibrate_reads_t_once(method, tmp_path, t_readings):
    # one channel per run, whatever the method
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=21, n=60, k=4)
    run_from_scores(str(path), model="block_rr", eps=0.2, b=2, method=method)
    assert t_readings == [(4, 4)]


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------


def test_main_synth_experiment(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "k": 2,
        "d": 4,
        "n_train": 150,
        "n_cal": 50,
        "n_test": 30,
        "eps": 0.1,
        "methods": ["standard"],
        "repetitions": 2,
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 0
    stdout = capsys.readouterr().out
    assert "standard: coverage" in stdout
    assert (out / "summary.csv").exists()


def test_main_calibrate_fallback_to_tau_one(tmp_path, capsys):
    # n = 3 cannot support alpha = 0.1, so tau falls back to 1
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=13, n=3, k=2)
    out = tmp_path / "out"
    code = main(
        [
            "calibrate",
            "--scores",
            str(path),
            "--model",
            "rr",
            "--eps",
            "0.1",
            "--method",
            "standard",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fell back to tau = 1" in stdout
    blob = json.loads((out / "threshold.json").read_text())
    assert blob["tau"] == 1.0 and blob["set_I_empty"] is True


def test_main_correction_prints_json(capsys):
    code = main(
        [
            "correction",
            "--model",
            "two_level_rr",
            "--eps",
            "0.2",
            "--nu",
            "0.2",
            "--k",
            "4",
            "--n",
            "1000",
            "--variant",
            "simplified",
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["method"] == "finite_sample"
    assert blob["c_n"] == c_of_n(1000)
    assert blob["value"] > 0.0
    assert blob["beta_star"]["beta0"] == pytest.approx(1.25, abs=1e-12)


def test_main_correction_large_k_randomized_response(capsys):
    # K = 100 was out of reach of the dense LP; Omega = 0 gives exactly c(n)
    argv = ["correction", "--model", "rr", "--eps", "0.2", "--k", "100", "--n", "5000"]
    assert main([*argv, "--variant", "fs"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["c_n"] == c_of_n(5000)
    assert blob["value"] == pytest.approx(blob["c_n"], rel=1e-12)
    assert blob["branch"] == "massart"
    assert set(blob["branch_values"]) == {"massart", "chaining"}
    assert blob["value"] == pytest.approx(min(blob["branch_values"].values()), rel=1e-9)


def test_main_correction_astronomical_n(capsys):
    # c(n) allocated arrays of sqrt(80 n) entries and exited 1 out of memory
    n = 10**30
    argv = ["correction", "--model", "rr", "--eps", "0.1", "--k", "4", "--n", str(n)]
    assert main(argv) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["c_n"] == c_of_n(n) and 0.0 < blob["c_n"] < cn_envelope(n)


@pytest.mark.parametrize("n", [10**308, 10**400], ids=["1e308", "1e400"])
@pytest.mark.parametrize("variant", ["fs", "cn"])
def test_main_correction_refuses_n_above_the_bound(capsys, n, variant):
    # at 10**308 "cn" printed a value of -0.0 and exited 0, and "fs" refused
    # c_n = -0.0; at 10**400 both exited 1 with an OverflowError traceback
    argv = ["correction", "--model", "rr", "--eps", "0.1", "--k", "4", "--n", str(n)]
    assert main([*argv, "--variant", variant]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be at most 10**300, got {n}\n"


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("method", ["standard", "adaptive-fs", "adaptive-asy"])
def test_threshold_json_has_every_record_field(tmp_path, method):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=7, n=30, k=3, with_true=True)
    out = tmp_path / "out"
    run_from_scores(str(cal_path), model="rr", eps=0.1, method=method, out=str(out))
    blob = json.loads((out / "threshold.json").read_text())
    assert set(blob) == field_names(ThresholdResult)
    if method != "standard":
        assert set(blob["correction"]) == field_names(CorrectionReport)


@pytest.mark.parametrize("variant", ["fs", "simplified", "cn"])
def test_main_correction_json_has_every_report_field(capsys, variant):
    argv = ["correction", "--model", "rr", "--eps", "0.1", "--k", "4", "--n", "500"]
    assert main([*argv, "--variant", variant]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == field_names(CorrectionReport)
    assert blob["condition_number"] >= 1.0
    if variant != "cn":
        assert set(blob["beta_star"]) == field_names(BetaVector)


def test_threshold_json_records_branch_values(tmp_path):
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=7, n=30, k=3, with_true=True)
    out = tmp_path / "out"
    run_from_scores(str(cal_path), model="rr", eps=0.1, method="adaptive-fs", out=str(out))
    correction = json.loads((out / "threshold.json").read_text())["correction"]
    values = correction["branch_values"]
    assert set(values) == {"massart", "chaining"}
    assert correction["value"] == pytest.approx(min(values.values()), rel=1e-9)


def test_main_domain_errors_exit_2(tmp_path, capsys):
    # block count must divide K
    code = main(
        [
            "correction",
            "--model",
            "block_rr",
            "--eps",
            "0.1",
            "--b",
            "3",
            "--k",
            "4",
            "--n",
            "100",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("p_1,p_2\n0.5,oops\n")
    code = main(
        ["calibrate", "--scores", str(bad), "--model", "rr", "--method", "standard"]
    )
    assert code == 2


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    # os.makedirs on an existing regular file; nothing is written under it
    taken = tmp_path / "taken"
    taken.write_text("")
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path)
    argv = ["calibrate", "--scores", str(cal_path), "--model", "rr", "--eps", "0.1"]
    assert main(argv + ["--method", "standard", "--out", str(taken)]) == 2
    assert f"error: cannot write {taken}:" in capsys.readouterr().err
    cfg = {"k": 2, "d": 4, "n_train": 150, "n_cal": 50, "n_test": 30}
    cfg |= {"methods": ["standard"], "repetitions": 1, "out": str(taken)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    assert f"error: cannot write {taken}:" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_main_calibrate_nan_score_exits_2(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("s_1,s_2,y_noisy\n0.2,nan,1\n0.5,0.7,2\n")
    code = main(
        ["calibrate", "--scores", str(path), "--model", "rr", "--method", "standard"]
    )
    assert code == 2
    assert "row 0, column 1 (0-based)" in capsys.readouterr().err


def test_main_calibrate_reads_bom_crlf_scores(tmp_path):
    p, y_noisy, _ = write_cal_csv(tmp_path / "plain.csv", seed=4, n=40, k=3)
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    assert b"\r\n" in path.read_bytes()
    out = tmp_path / "out"
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.1"]
    assert main(argv + ["--method", "adaptive-fs", "--out", str(out)]) == 0
    assert json.loads((out / "threshold.json").read_text())["tau"] > 0.0


def test_main_calibrate_blank_data_line_exits_2(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("s_1,s_2,y_noisy\n0.2,0.9,1\n\n0.5,0.7,2\n")
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.1"]
    assert main(argv + ["--method", "standard"]) == 2
    assert "error: line 3: expected 3 cells, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("over, code", [(5e-10, 0), (1e-8, 2)])
def test_main_calibrate_score_file_tolerance(tmp_path, over, code):
    # an s_* cell up to 1e-9 past 1 is rounding and reads as 1.0; further is refused
    path = tmp_path / "s.csv"
    own = [0.05 * i for i in range(1, 10)] + [1.0 + over]
    rows = "".join(f"0.5,{v!r},2\n" for v in own)
    path.write_text("s_1,s_2,y_noisy\n" + rows)
    out = tmp_path / "out"
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.1"]
    argv += ["--method", "standard", "--out", str(out)]
    assert main(argv) == code
    if code == 0:
        # ceil(11 * 0.9) = 10 = n: the largest own score, not the tau = 1 fallback
        blob = json.loads((out / "threshold.json").read_text())
        assert (blob["tau"], blob["i_hat"], blob["set_I_empty"]) == (1.0, 10, False)


def test_main_calibrate_transition_with_model_exits_2(tmp_path, capsys):
    # accepting both would take the correction from the model and W from the file
    cal_path, t_path = tmp_path / "cal.csv", tmp_path / "t.csv"
    write_cal_csv(cal_path, seed=8, n=40, k=2)
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=2, eps=0.4)
    np.savetxt(str(t_path), build_transition(spec).T, delimiter=",", fmt="%.17g")
    code = main(
        [
            "calibrate",
            "--scores",
            str(cal_path),
            "--transition",
            str(t_path),
            "--model",
            "rr",
            "--eps",
            "0.05",
            "--method",
            "adaptive-fs-simplified",
        ]
    )
    assert code == 2
    assert "exactly one of a transition CSV and a contamination model" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_main_calibrate_non_finite_transition_exits_2(tmp_path, capsys, cell):
    # NaN passed the column-sum check and then failed inside scipy: exit code 1
    cal_path, t_path = tmp_path / "cal.csv", tmp_path / "t.csv"
    write_cal_csv(cal_path, seed=8, n=40, k=2)
    t_path.write_text(f"0.9,0.2\n0.1,{cell}\n")
    argv = ["calibrate", "--scores", str(cal_path), "--transition", str(t_path)]
    assert main(argv + ["--method", "adaptive-fs"]) == 2
    assert "error: line 2: transition matrix entries must be finite" in (
        capsys.readouterr().err
    )


def test_main_calibrate_singular_transition_exits_2(tmp_path, capsys):
    cal_path, t_path = tmp_path / "cal.csv", tmp_path / "t.csv"
    write_cal_csv(cal_path, seed=8, n=40, k=2)
    t_path.write_text("0.5,0.5\n0.5,0.5\n")
    argv = ["calibrate", "--scores", str(cal_path), "--transition", str(t_path)]
    assert main(argv + ["--method", "adaptive-fs"]) == 2
    assert "transition matrix is numerically singular: condition number inf" in (
        capsys.readouterr().err
    )


def test_main_calibrate_writes_strict_json(tmp_path):
    # K = 1 gives an all-zero covariance; its record once held an infinite
    # condition number, which json.dump wrote as Infinity and no strict JSON
    # parser reads.  Its extreme eigenvalues are finite: both 0
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    path, out = tmp_path / "cal.csv", tmp_path / "out"
    write_cal_csv(path, seed=3, n=30, k=1)
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.1"]
    assert main(argv + ["--method", "adaptive-asy", "--out", str(out)]) == 0
    blob = json.loads((out / "threshold.json").read_text(), parse_constant=refuse)
    assert blob["correction"]["mc_diagnostics"]["covariance_eigenvalues"] == [0.0, 0.0]


def test_main_calibrate_negative_seed_exits_2(tmp_path, capsys):
    # np.random.SeedSequence would raise a ValueError: a traceback, exit code 1
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=8, n=40, k=2)
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.1"]
    assert main(argv + ["--method", "standard", "--seed", "-1"]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"seed": -3}, "seed must be >= 0, got -3"),
        ({"n_train": 100.0}, "n_train must be an integer, got 100.0"),
        ({"repetitions": 1.5}, "repetitions must be an integer, got 1.5"),
        ({"k": True}, "k must be an integer, got True"),
        ({"family": "block_rr", "b": 1.0}, "b must be an integer, got 1.0"),
    ],
    ids=["negative-seed", "float-n-train", "float-repetitions", "bool-k", "float-b"],
)
def test_main_synth_experiment_bad_integer_field_exits_2(tmp_path, capsys, bad, message):
    # each was once accepted when read and failed while running, exit code 1
    cfg = {"k": 2, "d": 4, "n_train": 150, "n_cal": 50, "n_test": 30, "eps": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg | bad))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"methods": ["standard", "standard"]}, "methods repeat ['standard']"),
        ({"methods": "standard"}, "methods must be a list of names, got 'standard'"),
        ({"methods": 5}, "methods must be a list of names, got 5"),
        ({"out": 5}, "out must be a str or os.PathLike, got int"),
    ],
    ids=["repeated-methods", "string-methods", "non-iterable-methods", "non-string-out"],
)
def test_main_synth_experiment_bad_methods_or_out_exits_2(tmp_path, capsys, bad, message):
    # once duplicate rows, a per-letter "unknown methods" list, or a traceback
    # with exit 1 (for "out", only after every repetition had run)
    cfg = {"k": 2, "d": 4, "n_train": 150, "n_cal": 50, "n_test": 30, "eps": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg | {"repetitions": 2} | bad))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "repetition" not in err


@pytest.mark.parametrize("bad", ["false", 0, None])
def test_main_synth_experiment_non_bool_randomized_scores_exits_2(tmp_path, capsys, bad):
    # the string "false" was once taken for its truth value: randomized
    # scores ran without a word
    cfg = {"k": 2, "d": 4, "n_train": 150, "n_cal": 50, "n_test": 30, "eps": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg | {"randomized_scores": bad}))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: randomized_scores must be true or false, got {bad!r}" in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"family": "two_level_rr", "nu": True}, "nu must be a real number, got True"),
        ({"eps": False}, "eps must be a real number, got False"),
        ({"cube_side": True}, "cube_side must be a real number, got True"),
        ({"imbalance_mu": "0.5"}, "imbalance_mu must be a real number, got '0.5'"),
        ({"family": "two_level_rr", "nu": "0.2"}, "nu must be a real number, got '0.2'"),
        ({"alpha": None}, "alpha must be a real number, got None"),
    ],
    ids=["bool-nu", "bool-eps", "bool-cube-side", "string-mu", "string-nu", "null-alpha"],
)
def test_main_synth_experiment_non_real_float_field_exits_2(tmp_path, capsys, bad, message):
    # a bool once ran as 0 or 1 without a word; a string or null failed on a
    # comparison inside the range check
    cfg = {"k": 2, "d": 4, "n_train": 150, "n_cal": 50, "n_test": 30, "eps": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg | bad))
    assert main(["synth-experiment", "--config", str(cfg_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_main_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag",
    [
        ["correction", "--analytic-cn"],
        ["correction", "--cn-m", "2000"],
        ["correction", "--seed", "1"],
        ["calibrate", "--asy-order", "2"],
        ["calibrate", "--asy-m", "2000"],
    ],
)
def test_main_correction_rejects_removed_cn_flags(flag, tmp_path):
    command, *removed = flag
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=15, n=20, k=4)
    valid = {
        "correction": ["--model", "rr", "--k", "4", "--n", "100"],
        "calibrate": ["--scores", str(path), "--model", "rr", "--method", "standard"],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *valid[command], *removed])
    assert exc.value.code == 2


def test_main_calibrate_asy_method(tmp_path, capsys):
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=14, n=50, k=2)
    out = tmp_path / "out"
    code = main(
        [
            "calibrate",
            "--scores",
            str(path),
            "--model",
            "rr",
            "--eps",
            "0.1",
            "--method",
            "adaptive-asy",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads((out / "threshold.json").read_text())
    assert blob["correction"]["method"] == "asymptotic"
    assert blob["correction"]["mc_diagnostics"]["M"] == 50000
    assert blob["correction"]["mc_diagnostics"]["extrapolated_se"] > 0.0
    lam_min, lam_max = blob["correction"]["mc_diagnostics"]["covariance_eigenvalues"]
    assert abs(lam_min) <= 1e-12 * lam_max


def run_python(args):
    """Run the interpreter on args with this checkout's src/ on the path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [sys.executable, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_without_runtime_warning():
    # the package must not import its CLI module, or runpy warns on -m
    argv = ["-W", "error::RuntimeWarning", "-m", "noisycal.cli"]
    argv += ["correction", "--model", "rr", "--eps", "0.1", "--k", "4", "--n", "1000"]
    proc = run_python(argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "finite_sample"


_SCIPY_PROBE = """
import sys

import numpy as np

from noisycal import ContaminationSpec, build_transition, delta_star_star_bound
from noisycal import upper_bound_diagnostics
from noisycal.cli import main
from noisycal.fileio import read_transition_csv

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

scores, block_transition, transition, config, out = sys.argv[1:]
argv = ["calibrate", "--scores", scores, "--model", "rr", "--eps", "0.1"]
for method in ("adaptive-asy", "adaptive-fs"):
    assert main(argv + ["--method", method, "--out", out]) == 0
argv = ["correction", "--model", "block_rr", "--eps", "0.1", "--b", "6"]
assert main(argv + ["--k", "60", "--n", "1000", "--variant", "fs"]) == 0
assert main(["synth-experiment", "--config", config]) == 0
argv = ["calibrate", "--scores", scores, "--transition", block_transition]
assert main(argv + ["--method", "adaptive-fs"]) == 0
spec = ContaminationSpec(family="two_level_rr", k=60, eps=0.2, nu=0.5)
for tm in (build_transition(spec), read_transition_csv(block_transition)):
    dss = delta_star_star_bound(1000, tm.k, tm)
    rho = np.full(tm.k, 1.0 / tm.k)
    upper_bound_diagnostics(1000, tm.k, tm, rho, tm.T @ rho, 0.05, dss)
assert not scipy_modules(), scipy_modules()
argv = ["calibrate", "--scores", scores, "--transition", transition]
assert main(argv + ["--method", "adaptive-fs"]) == 0
assert "scipy.optimize" in sys.modules
"""


def dense_transition(k, seed):
    """A column-stochastic T whose inverse has no block form."""
    rng = np.random.default_rng(seed)
    return 0.7 * np.eye(k) + 0.3 * rng.dirichlet(np.full(k, 0.3), size=k).T


def test_only_the_finite_sample_lp_loads_scipy(tmp_path):
    # every route whose W has the block form of the parametric families runs
    # without SciPy, adaptive-fs and the delta** diagnostics included (their
    # optima are in closed form), whether the model came from flags or from
    # a transition file; any other transition matrix needs the LP
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=14, n=50, k=4)
    block_path = tmp_path / "t_block.csv"
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.1, b=2)
    np.savetxt(str(block_path), build_transition(spec).T, delimiter=",", fmt="%.17g")
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), dense_transition(4, 14), delimiter=",", fmt="%.17g")
    cfg = {"k": 4, "d": 4, "n_train": 100, "n_cal": 40, "n_test": 20}
    cfg |= {"family": "two_level_rr", "eps": 0.2, "nu": 0.5, "methods": ["adaptive-fs"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [str(p) for p in (path, block_path, t_path, cfg_path, tmp_path / "out")]
    proc = run_python(["-c", _SCIPY_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "threshold.json").exists()
    assert '"method": "finite_sample"' in proc.stdout
    assert "adaptive-fs: coverage" in proc.stdout


_UNLOADED_PROBE = """
import sys
from noisycal.cli import main

scores, config, out = sys.argv[1:]
argv = ["calibrate", "--scores", scores, "--model", "rr", "--eps", "0.1"]
assert main(argv + ["--method", "standard"]) == 0
assert main(argv + ["--method", "adaptive-asy", "--out", out]) == 0
assert main(["synth-experiment", "--config", config]) == 0
for name in ("numpy.ma", "fractions", "decimal", "traceback"):
    assert name not in sys.modules, name
"""


def test_calibrate_and_synth_leave_numpy_ma_unloaded(tmp_path):
    # np.unique in the two-class check of train_softmax imported numpy.ma;
    # the standard index took fractions, and with it decimal; traceback is
    # needed only to print an unexpected error
    path = tmp_path / "cal.csv"
    write_cal_csv(path, seed=15, n=50, k=4)
    cfg = {"k": 4, "d": 4, "n_train": 100, "n_cal": 40, "n_test": 20}
    cfg |= {"family": "rr", "eps": 0.2, "methods": ["standard"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [str(p) for p in (path, cfg_path, tmp_path / "out")]
    proc = run_python(["-c", _UNLOADED_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "threshold.json").exists()
    assert "standard: coverage" in proc.stdout


def test_family_fs_route_never_solves_the_lp(tmp_path, monkeypatch):
    real_lp = correction._branch_lp

    def refuse(*args, **kwargs):
        raise AssertionError("the Massart LP ran for a parametric model")

    monkeypatch.setattr(correction, "_branch_lp", refuse)
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=200, eps=0.2, b=20)
    report = correction_report(spec, 5000)
    assert report.method is CorrectionMethod.FINITE_SAMPLE
    assert 0.0 < report.value <= report.branch_values["massart"]
    assert delta_star_star_bound(5000, 200, build_transition(spec)) >= report.value

    calls = []

    def count(w, *args, **kwargs):
        calls.append(w.shape)
        return real_lp(w, *args, **kwargs)

    # a transition matrix read from a file whose inverse has no block form
    # still needs the LP, once, for the Massart branch
    monkeypatch.setattr(correction, "_branch_lp", count)
    cal_path = tmp_path / "cal.csv"
    write_cal_csv(cal_path, seed=15, n=40, k=3)
    t_path = tmp_path / "t.csv"
    np.savetxt(str(t_path), dense_transition(3, 15), delimiter=",", fmt="%.17g")
    run_from_scores(str(cal_path), transition_path=str(t_path), method="adaptive-fs")
    assert calls == [(3, 3)]


def test_adaptive_asy_run_sorts_the_pooled_scores_once(tmp_path, monkeypatch):
    # Delta_hat's cumulative sum is the one sort of the n K pooled scores; the
    # covariance reads E_n f_t off the grid cells of its second moment.  Only
    # axis=None counts: aps_scores argsorts each row
    real_argsort, real_covariance = np.argsort, correction.estimate_covariance
    pooled, in_covariance = [], []

    def spy(a, axis=-1, **kwargs):
        if axis is None:
            pooled.append(np.shape(a))
        return real_argsort(a, axis=axis, **kwargs)

    def covariance(*args):
        before = len(pooled)
        sigma = real_covariance(*args)
        in_covariance.append(len(pooled) - before)
        return sigma

    monkeypatch.setattr(np, "argsort", spy)
    monkeypatch.setattr(correction, "estimate_covariance", covariance)
    path, out = tmp_path / "cal.csv", tmp_path / "out"
    write_cal_csv(path, seed=4, n=40, k=3)
    argv = ["calibrate", "--scores", str(path), "--model", "rr", "--eps", "0.2"]
    assert main(argv + ["--method", "adaptive-asy", "--out", str(out)]) == 0
    assert pooled == [(40, 3)]
    assert in_covariance == [0]


def test_methods_tuple_is_canonical():
    assert METHODS == (
        "standard",
        "adaptive-fs",
        "adaptive-fs-simplified",
        "adaptive-asy",
        "adaptive-plus",
    )
