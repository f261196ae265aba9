"""Command-line interface and experiment orchestration.

Three subcommands:

* ``synth-experiment --config c.json`` generates, contaminates, trains and
  scores data over repeated seeds, runs the calibration pipeline for one or
  more methods on each repetition and writes results/summary CSVs;
* ``calibrate --scores s.csv --transition t.csv`` runs the pipeline on
  user-supplied probability or score rows, after reading every input file;
  the channel comes from ``--model`` or ``--transition`` alike, and the
  simplified method needs a W of block form from either;
* ``correction --model rr --eps 0.1 --k 4 --n 5000`` prints a correction
  report as JSON.

The one calibration pipeline, ``_pipeline``, chains: noisy-label scores in a
``CalibrationSet``, the correction delta(n) of each method's route (shared by
the methods on it), the threshold rule, the prediction sets, and their
coverage and size as a ``results.csv`` row when true labels are given.

Exit codes: 0 on success, 2 for validation problems (bad flags, bad config,
malformed files, invalid model parameters), 1 for internal failures.

Repetition r of an experiment uses seed ``config.seed + r``; everything a
repetition consumes (data, label noise, score randomization, Monte-Carlo
draws of the asymptotic correction) is derived from that one integer, so
results are reproducible.  c(n) is exact and consumes no randomness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fileio
from .calibrate import (
    adaptive_threshold,
    evaluate,
    optimistic_threshold,
    prediction_sets,
    standard_threshold,
)
from .correction import (
    CorrectionMethod,
    CorrectionReport,
    _fs_special,
    _mean_se,
    c_of_n,
    delta_asy,
    delta_fs,
)
from .empirical import CalibrationSet
from .errors import (
    CholeskyFailure,
    FileFormatError,
    InvalidSpec,
    NoisycalError,
    SolverFailure,
    _check_alpha,
    _check_int,
    _check_n,
    _check_path,
    _check_type,
)
from .noise_model import (
    ContaminationSpec,
    Family,
    TransitionMatrix,
    build_transition,
    sample_noisy_labels,
)
from .scores import _clip_scores, aps_scores
from .synth import (
    SynthConfig,
    generate,
    predict_probs,
    train_softmax,
)

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "read_experiment_config",
    "run_synthetic",
    "run_from_scores",
    "correction_report",
    "main",
]

# Each method's correction route, which results.csv records as
# ``delta_method``, and its threshold rule, called as rule(cal, tm, alpha,
# correction).  Methods on one route share one correction per calibration set
# (see ``_pipeline``).  The rules reach calibrate's functions through this
# module's globals at call time, so wrappers installed on the module see
# every call.
_METHOD_TABLE = {
    "standard": ("none", lambda cal, tm, a, d: standard_threshold(cal, a)),
    "adaptive-fs": ("fs", lambda cal, tm, a, d: adaptive_threshold(cal, tm, a, d)),
    "adaptive-fs-simplified": (
        "fs-simplified", lambda cal, tm, a, d: adaptive_threshold(cal, tm, a, d)
    ),
    "adaptive-asy": ("asy", lambda cal, tm, a, d: adaptive_threshold(cal, tm, a, d)),
    "adaptive-plus": ("asy", lambda cal, tm, a, d: optimistic_threshold(cal, tm, a, d)),
}

METHODS = tuple(_METHOD_TABLE)

# The correction route of each ``correction_report`` variant.
_VARIANT_ROUTES = {"fs": "fs", "simplified": "fs-simplified", "cn": "cn"}

_PARAMETRIC = tuple(f.value for f in Family)


@dataclass(frozen=True)
class ExperimentConfig(SynthConfig):
    """Flat description of one synthetic experiment (JSON-serializable): the
    data generator's ``SynthConfig`` plus the channel and run keys."""

    family: str = "rr"
    eps: float = 0.0
    nu: float = 0.0
    b: int | None = None
    alpha: float = 0.1
    methods: tuple[str, ...] = ("standard",)
    repetitions: int = 1
    out: str | None = None
    randomized_scores: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.methods, str) or not hasattr(self.methods, "__iter__"):
            raise InvalidSpec(f"methods must be a list of names, got {self.methods!r}")
        methods = tuple(self.methods)
        object.__setattr__(self, "methods", methods)
        if not methods:
            raise InvalidSpec("methods must be nonempty")
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise InvalidSpec(f"unknown methods {unknown}; valid: {list(METHODS)}")
        repeated = sorted({m for m in methods if methods.count(m) > 1})
        if repeated:
            raise InvalidSpec(f"methods repeat {repeated}")
        if self.out is not None:
            _check_path("out", self.out)
        _check_int("repetitions", self.repetitions, 1)
        if self.b is not None:
            _check_int("b", self.b, 1)
        if not isinstance(self.randomized_scores, bool):
            raise InvalidSpec(
                f"randomized_scores must be true or false, got {self.randomized_scores!r}"
            )
        _check_alpha(self.alpha)
        # the generator's fields are checked by SynthConfig's own code, k
        # among them before the model sees it
        super().__post_init__()
        spec = ContaminationSpec(self.family, self.k, self.eps, self.nu, self.b)
        object.__setattr__(self, "_contamination", spec)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_type("raw", raw, dict)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise InvalidSpec(f"unknown config keys {unknown}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise InvalidSpec(f"bad experiment config: {exc}") from exc

    def contamination(self) -> ContaminationSpec:
        return self._contamination

    def synth(self, seed: int) -> SynthConfig:
        return dataclasses.replace(self, seed=seed)


def read_experiment_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(fileio._read_json_object(path))


def _correction(
    route: str,
    n: int,
    tm: TransitionMatrix,
    cal: CalibrationSet | None = None,
    asy_seed: int = 0,
) -> CorrectionReport | None:
    """The correction of one route at calibration size n, with ``tm``'s
    condition number; None for ``"none"``.

    ``"cn"`` is c(n) alone and ``"asy"`` needs the calibration set itself.
    ``"fs"`` (:func:`delta_fs`) and ``"fs-simplified"``
    (:func:`~noisycal.correction._fs_special`) read W's block form under any
    labelling, whether ``tm`` came from ``--model`` or ``--transition``: on
    any other W ``"fs"`` needs the Massart LP and ``"fs-simplified"`` raises
    InvalidSpec.
    """
    if route == "none":
        return None
    if route == "asy":
        report = delta_asy(cal, tm, seed=asy_seed)
    else:
        c_n = c_of_n(n)
        if route == "cn":
            report = CorrectionReport(method=CorrectionMethod.CN_ONLY, value=c_n, c_n=c_n)
        elif route == "fs":
            report = delta_fs(n, tm.k, tm, c_n)
        else:
            report = _fs_special(tm, n, c_n)
    return dataclasses.replace(report, condition_number=tm.condition_number)


def _pipeline(cal, tm, alpha, methods, asy_seed, seed, scores, y_true) -> list[tuple]:
    """(threshold, prediction sets, results row) of each of ``methods``: the
    correction of each route, computed once for the methods on it, the rule,
    the sets of ``scores`` at tau and, when ``y_true`` is given, their
    ``results.csv`` row with ``seed`` in its seed column (else None)."""
    corrections: dict[str, CorrectionReport | None] = {}
    runs = []
    for method in methods:
        route, rule = _METHOD_TABLE[method]
        if route not in corrections:
            corrections[route] = _correction(route, cal.n, tm, cal, asy_seed)
        thr = rule(cal, tm, alpha, corrections[route])
        sets = prediction_sets(scores, thr.tau)
        row = None if y_true is None else {
            "method": method,
            "n": cal.n,
            "K": cal.k,
            "alpha": alpha,
            "delta_method": route,
            "delta_value": 0.0 if thr.correction is None else thr.correction.value,
            "tau_hat": thr.tau,
            **evaluate(sets, y_true),
            "seed": seed,
        }
        runs.append((thr, sets, row))
    return runs


def _run_rep(config: ExperimentConfig, tm: TransitionMatrix, rep: int) -> list[dict]:
    rep_seed = config.seed + rep
    sub = np.random.SeedSequence(rep_seed).generate_state(4)
    x, y = generate(config.synth(rep_seed))
    noisy = sample_noisy_labels(y, tm, seed=int(sub[0]))
    train = slice(0, config.n_train)
    calib = slice(config.n_train, config.n_train + config.n_cal)
    test = slice(config.n_train + config.n_cal, None)

    model = train_softmax(x[train], noisy[train], n_classes=config.k)
    s_cal = aps_scores(
        predict_probs(model, x[calib]),
        randomized=config.randomized_scores,
        seed=int(sub[1]),
    )
    s_test = aps_scores(
        predict_probs(model, x[test]),
        randomized=config.randomized_scores,
        seed=int(sub[2]),
    )
    cal = CalibrationSet.from_scores(s_cal, noisy[calib])
    runs = _pipeline(
        cal, tm, config.alpha, config.methods, int(sub[3]), rep_seed,
        s_test, y[test],
    )
    return [row for _, _, row in runs]


def _summarize(config: ExperimentConfig, rows: list[dict]) -> list[dict]:
    summary = []
    for method in config.methods:
        runs = [r for r in rows if r["method"] == method]
        stat = np.array([[r["coverage"] for r in runs], [r["avg_size"] for r in runs]])
        # one repetition has no spread; ddof=1 on it would warn
        mean, se = _mean_se(stat) if len(runs) > 1 else (stat[:, 0], (0.0, 0.0))
        summary.append(
            {
                "method": method,
                "repetitions": len(runs),
                "mean_coverage": float(mean[0]),
                "se_coverage": float(se[0]),
                "mean_size": float(mean[1]),
                "se_size": float(se[1]),
            }
        )
    return summary


def run_synthetic(config: ExperimentConfig) -> dict:
    """Run the synthetic experiment; returns {"rows": [...], "summary": [...]}."""
    _check_type("config", config, ExperimentConfig)
    tm = build_transition(config.contamination())
    rows = []
    for rep in range(config.repetitions):
        try:
            rows += _run_rep(config, tm, rep)
        except NoisycalError as exc:
            exc.repetition = rep
            raise
    summary = _summarize(config, rows)
    if config.out is not None:
        fileio._writing(os.makedirs, config.out, exist_ok=True)
        fileio.write_results_csv(os.path.join(config.out, "results.csv"), rows)
        fileio.write_summary_csv(os.path.join(config.out, "summary.csv"), summary)
    return {"rows": rows, "summary": summary}


def _read_scores(path: str, randomized: bool, seed: int):
    """Scores and labels of a p_* or s_* CSV: APS scores of p_* rows, or the
    s_* rows checked and clipped to [0, 1]."""
    kind, values, y_noisy, y_true = fileio.read_probability_csv(path)
    if kind == "p":
        return aps_scores(values, randomized=randomized, seed=seed), y_noisy, y_true
    return _clip_scores(values), y_noisy, y_true


def run_from_scores(
    scores_path: str,
    transition_path: str | None = None,
    model: str | None = None,
    eps: float = 0.0,
    nu: float = 0.0,
    b: int | None = None,
    alpha: float = 0.1,
    method: str = "adaptive-asy",
    out: str | None = None,
    test_path: str | None = None,
    randomized: bool = False,
    seed: int = 0,
) -> dict:
    """Calibrate a threshold from a file of probability or score rows.

    The calibration file must carry ``y_noisy``.  Prediction sets (the
    boolean n x K membership matrix under ``"sets"``) are produced for the
    test file when given, otherwise for the calibration rows themselves;
    coverage is reported whenever the evaluated rows carry ``y_true``.
    """
    _check_path("scores_path", scores_path)
    optional = {"transition_path": transition_path, "test_path": test_path, "out": out}
    for name, path in optional.items():
        if path is not None:
            _check_path(name, path)
    if method not in METHODS:
        raise InvalidSpec(f"unknown method {method!r}; valid: {list(METHODS)}")
    if (transition_path is None) == (model is None):
        raise InvalidSpec(
            "provide exactly one of a transition CSV and a contamination model"
        )
    _check_int("seed", seed, 0)
    seeds = np.random.SeedSequence(seed).generate_state(3)
    s_cal, y_noisy, y_true = _read_scores(scores_path, randomized, int(seeds[0]))
    if y_noisy is None:
        raise FileFormatError(f"{scores_path} needs a y_noisy column for calibration")
    k = s_cal.shape[1]
    s_eval = s_cal
    if test_path is not None:
        s_eval, _, y_true = _read_scores(test_path, randomized, int(seeds[2]))
        if s_eval.shape[1] != k:
            raise InvalidSpec(
                f"test rows have {s_eval.shape[1]} classes, calibration rows {k}"
            )

    if transition_path is not None:
        tm = fileio.read_transition_csv(transition_path)
        if tm.k != k:
            raise InvalidSpec(
                f"transition matrix is {tm.k} x {tm.k} but rows have {k} classes"
            )
    else:
        tm = build_transition(ContaminationSpec(family=model, k=k, eps=eps, nu=nu, b=b))

    cal = CalibrationSet.from_scores(s_cal, y_noisy)
    [(thr, sets, row)] = _pipeline(
        cal, tm, alpha, [method], int(seeds[1]), seed, s_eval, y_true
    )
    if out is not None:
        fileio._writing(os.makedirs, out, exist_ok=True)
        fileio.write_threshold_json(os.path.join(out, "threshold.json"), thr)
        fileio.write_prediction_sets_csv(
            os.path.join(out, "prediction_sets.csv"), sets, thr.tau
        )
        if row is not None:
            fileio.write_results_csv(os.path.join(out, "results.csv"), [row])
    metrics = None if row is None else {m: row[m] for m in ("coverage", "avg_size")}
    return {"threshold": thr, "sets": sets, "metrics": metrics}


def correction_report(
    spec: ContaminationSpec,
    n: int,
    variant: str = "fs",
) -> CorrectionReport:
    """Correction value for a parametric model at calibration size n."""
    _check_n(n)
    _check_type("variant", variant, str)
    if variant not in _VARIANT_ROUTES:
        raise InvalidSpec(f"unknown correction variant {variant!r}")
    return _correction(_VARIANT_ROUTES[variant], n, build_transition(spec))


def _cmd_synth(args: argparse.Namespace) -> int:
    config = read_experiment_config(args.config)
    result = run_synthetic(config)
    for row in result["summary"]:
        print(
            f"{row['method']}: coverage {row['mean_coverage']:.4f} "
            f"(se {row['se_coverage']:.4f}), size {row['mean_size']:.3f} "
            f"(se {row['se_size']:.3f}) over {row['repetitions']} reps"
        )
    if config.out is not None:
        print(f"wrote {os.path.join(config.out, 'results.csv')}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    result = run_from_scores(
        args.scores,
        transition_path=args.transition,
        model=args.model,
        eps=args.eps,
        nu=args.nu,
        b=args.b,
        alpha=args.alpha,
        method=args.method,
        out=args.out,
        test_path=args.test,
        randomized=args.randomized,
        seed=args.seed,
    )
    thr = result["threshold"]
    print(f"tau_hat = {thr.tau!r} ({args.method})")
    if thr.set_I_empty:
        print("index set empty; fell back to tau = 1")
    if thr.warning is not None:
        print(f"warning: {thr.warning}")
    if result["metrics"] is not None:
        print(
            f"coverage {result['metrics']['coverage']:.4f}, "
            f"avg size {result['metrics']['avg_size']:.3f}"
        )
    if args.out is not None:
        print(f"wrote {os.path.join(args.out, 'prediction_sets.csv')}")
    return 0


def _cmd_correction(args: argparse.Namespace) -> int:
    spec = ContaminationSpec(
        family=args.model, k=args.k, eps=args.eps, nu=args.nu, b=args.b
    )
    report = correction_report(spec, args.n, variant=args.variant)
    print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return 0


def _add_model_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--model",
        choices=_PARAMETRIC,
        required=required,
        help="parametric contamination family",
    )
    parser.add_argument("--eps", type=float, default=0.0, help="noise strength")
    parser.add_argument("--nu", type=float, default=0.0, help="two-level deviation")
    parser.add_argument("--b", type=int, default=None, help="number of blocks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisycal",
        description="prediction sets with label-noise-adaptive conformal calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sx = sub.add_parser(
        "synth-experiment", help="run the synthetic end-to-end experiment"
    )
    sx.add_argument("--config", required=True, help="experiment config JSON")
    sx.set_defaults(func=_cmd_synth)

    cal = sub.add_parser(
        "calibrate", help="calibrate a threshold from probability or score rows"
    )
    cal.add_argument("--scores", required=True, help="calibration CSV (needs y_noisy)")
    cal.add_argument("--transition", help="transition matrix CSV (K x K, no header)")
    _add_model_flags(cal, required=False)
    cal.add_argument("--alpha", type=float, default=0.1)
    cal.add_argument("--method", choices=METHODS, default="adaptive-asy")
    cal.add_argument("--test", help="rows to form prediction sets for")
    cal.add_argument("--out", help="output directory")
    cal.add_argument(
        "--randomized", action="store_true", help="randomize scores built from p_* rows"
    )
    cal.add_argument("--seed", type=int, default=0)
    cal.set_defaults(func=_cmd_calibrate)

    cor = sub.add_parser("correction", help="print a correction report as JSON")
    _add_model_flags(cor, required=True)
    cor.add_argument("--k", type=int, required=True, help="number of classes")
    cor.add_argument("--n", type=int, required=True, help="calibration size")
    cor.add_argument("--variant", choices=tuple(_VARIANT_ROUTES), default="fs")
    cor.set_defaults(func=_cmd_correction)
    return parser


def _with_rep(exc: NoisycalError) -> str:
    rep = getattr(exc, "repetition", None)
    return str(exc) if rep is None else f"repetition {rep}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except NoisycalError as exc:
        print(f"error: {_with_rep(exc)}", file=sys.stderr)
        return 1 if isinstance(exc, (SolverFailure, CholeskyFailure)) else 2
    except Exception:
        import traceback  # only on this path: it adds to every CLI start

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
