"""Benchmark workloads: input generation and output checks.

Every input is generated from the workload seed through the package's public
API, written to files, and handed to the ``noisycal`` CLI.  Workloads carry
problem parameters only (sizes, K, noise family, eps/nu/b, alpha, methods,
repetitions, seed); they never pass a tuning knob such as a Monte-Carlo size,
so removing a knob from the program needs no change here.

The output checks test the paper's guarantees rather than pinned values, so
a change of seeding or extrapolation still passes:

* every expected output file parses and has the expected number of rows;
* ``tau`` lies in [0, 1] and the correction value is finite and >= 0;
* for the methods that carry a coverage guarantee, clean-label coverage is at
  least ``1 - alpha - Z * se``, where ``se`` is the binomial standard error of
  conformal coverage at the stated sizes:
  ``sqrt(alpha (1 - alpha) (1 / n_cal + 1 / n_test))`` (the first term is the
  spread of the calibrated quantile, the second the test-set sampling).  The
  uncorrected ``standard`` rule has no guarantee under label noise, so its
  coverage is only range-checked.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One-sided normal quantile for the coverage tolerance, fixed before any
# measurement: a method exactly at its nominal level fails a check with
# probability about 3e-5.
Z = 4.0

GUARANTEED = ("adaptive-fs", "adaptive-fs-simplified", "adaptive-asy")

RESULTS_COLUMNS = ("method", "delta_value", "tau_hat", "coverage", "avg_size")


@dataclass(frozen=True)
class Problem:
    k: int
    d: int
    n_train: int
    n_cal: int
    n_test: int
    family: str
    eps: float
    nu: float = 0.0
    b: int | None = None
    alpha: float = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "calibrate" or "synth-experiment"
    problem: Problem
    methods: tuple[str, ...]
    repetitions: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="calibrate-asy",
            why="calibrate with the asymptotic correction: the Monte-Carlo "
            "Gaussian-supremum ladder dominates; no LP and no c(n)",
            command="calibrate",
            problem=Problem(
                k=4, d=20, n_train=10_000, n_cal=5000, n_test=2000,
                family="two_level_rr", eps=0.2, nu=0.2,
            ),
            methods=("adaptive-asy",),
        ),
        Workload(
            name="calibrate-fs-k60",
            why="calibrate with the finite-sample correction at K=60: "
            "c(n) and the dense LP dominate; no Monte-Carlo ladder",
            command="calibrate",
            problem=Problem(
                k=60, d=12, n_train=5000, n_cal=5000, n_test=2000,
                family="block_rr", eps=0.2, b=6,
            ),
            methods=("adaptive-fs",),
        ),
        Workload(
            name="synth-fs",
            why="synth-experiment over 8 repetitions: training, cached c(n) "
            "and per-row prediction sets; the asymptotic ladder left out",
            command="synth-experiment",
            problem=Problem(
                k=4, d=20, n_train=10_000, n_cal=2000, n_test=10_000,
                family="two_level_rr", eps=0.2, nu=0.2,
            ),
            methods=("standard", "adaptive-fs", "adaptive-fs-simplified"),
            repetitions=8,
        ),
    )
}


@dataclass
class Inputs:
    """The generated files and the CLI arguments that consume them."""

    argv: list[str]
    outdir: Path
    check: Callable[[Path], list[str]] = field(repr=False)


def _seeds(seed: int, count: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _model_flags(p: Problem) -> list[str]:
    flags = ["--model", p.family, "--eps", repr(p.eps)]
    if p.family == "two_level_rr":
        flags += ["--nu", repr(p.nu)]
    if p.family == "block_rr":
        flags += ["--b", str(p.b)]
    return flags


def prepare(workload: Workload, seed: int, workdir: Path, span) -> Inputs:
    """Generate the workload's input files under ``workdir``.

    ``span(name)`` is a context manager that times each setup phase.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    outdir = workdir / "out"
    p = workload.problem
    if workload.command == "synth-experiment":
        (config_seed,) = _seeds(seed, 1)
        config = {
            "k": p.k, "d": p.d,
            "n_train": p.n_train, "n_cal": p.n_cal, "n_test": p.n_test,
            "family": p.family, "eps": p.eps, "nu": p.nu, "b": p.b,
            "alpha": p.alpha,
            "methods": list(workload.methods),
            "repetitions": workload.repetitions,
            "seed": config_seed % 2**31,
            "out": str(outdir),
        }
        with span("setup.write"):
            path = workdir / "experiment.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
        return Inputs(
            argv=["synth-experiment", "--config", str(path)],
            outdir=outdir,
            check=functools.partial(check, workload),
        )

    from noisycal import (
        ContaminationSpec, Family, SynthConfig, build_transition, fileio,
        generate, predict_probs, sample_noisy_labels, train_softmax,
    )

    data_seed, noise_seed, cli_seed = _seeds(seed, 3)
    with span("setup.generate"):
        x, y = generate(
            SynthConfig(
                k=p.k, d=p.d, n_train=p.n_train, n_cal=p.n_cal,
                n_test=p.n_test, seed=data_seed,
            )
        )
    with span("setup.noise_model"):
        spec = ContaminationSpec(
            family=Family(p.family), k=p.k, eps=p.eps, nu=p.nu, b=p.b
        )
        noisy = sample_noisy_labels(y, build_transition(spec), seed=noise_seed)
    train = slice(0, p.n_train)
    calib = slice(p.n_train, p.n_train + p.n_cal)
    test = slice(p.n_train + p.n_cal, None)
    with span("setup.train"):
        model = train_softmax(x[train], noisy[train], n_classes=p.k)
    with span("setup.predict"):
        p_cal = predict_probs(model, x[calib])
        p_test = predict_probs(model, x[test])
    cal_path, test_path = workdir / "cal.csv", workdir / "test.csv"
    with span("setup.write"):
        fileio.write_probability_csv(str(cal_path), p_cal, y_noisy=noisy[calib])
        fileio.write_probability_csv(str(test_path), p_test, y_true=y[test])
    (method,) = workload.methods
    argv = [
        "calibrate", "--scores", str(cal_path), *_model_flags(p),
        "--alpha", repr(p.alpha), "--method", method,
        "--test", str(test_path), "--out", str(outdir),
        "--randomized", "--seed", str(cli_seed % 2**31),
    ]
    return Inputs(argv=argv, outdir=outdir, check=functools.partial(check, workload))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check(workload: Workload, outdir: Path) -> list[str]:
    """Problems found in one operation's outputs; empty when they pass."""
    if workload.command == "calibrate":
        return check_calibrate(outdir, workload)
    return check_synth(outdir, workload)


def coverage_floor(p: Problem, repetitions: int = 1) -> float:
    """Lowest clean-label coverage consistent with the 1 - alpha guarantee."""
    se = math.sqrt(p.alpha * (1 - p.alpha) * (1 / p.n_cal + 1 / p.n_test))
    return 1 - p.alpha - Z * se / math.sqrt(repetitions)


def _finite(value, lo: float, hi: float = math.inf) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def _read_csv(path: Path, columns) -> tuple[list[dict], list[str]]:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [], [f"{path.name}: cannot read ({exc})"]
    missing = [c for c in columns if rows and c not in rows[0]]
    if not rows or missing:
        return [], [f"{path.name}: no rows or missing columns {missing}"]
    parsed, problems = [], []
    for i, row in enumerate(rows):
        out = dict(row)
        for c in columns:
            if c == "method":
                continue
            try:
                out[c] = float(row[c])
            except (TypeError, ValueError):
                problems.append(f"{path.name} row {i + 1}: {c}={row[c]!r} is not a number")
        parsed.append(out)
    return parsed, problems


def _check_result_rows(rows: list[dict], p: Problem, name: str) -> list[str]:
    problems = []
    floor = coverage_floor(p)
    for i, row in enumerate(rows):
        where = f"{name} row {i + 1} ({row.get('method')})"
        if not _finite(row.get("tau_hat"), 0.0, 1.0):
            problems.append(f"{where}: tau_hat {row.get('tau_hat')!r} outside [0, 1]")
        if not _finite(row.get("delta_value"), 0.0):
            problems.append(f"{where}: correction {row.get('delta_value')!r} not finite >= 0")
        cov = row.get("coverage")
        if not _finite(cov, 0.0, 1.0):
            problems.append(f"{where}: coverage {cov!r} outside [0, 1]")
        elif row.get("method") in GUARANTEED and cov < floor:
            problems.append(f"{where}: coverage {cov:.4f} below floor {floor:.4f}")
        if not _finite(row.get("avg_size"), 0.0, p.k):
            problems.append(f"{where}: avg_size {row.get('avg_size')!r} outside [0, K]")
    return problems


def check_calibrate(outdir: Path, workload: Workload) -> list[str]:
    p = workload.problem
    problems = []
    try:
        thr = json.loads((outdir / "threshold.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"threshold.json: cannot parse ({exc})"]
    tau = thr.get("tau") if isinstance(thr, dict) else None
    if not _finite(tau, 0.0, 1.0):
        problems.append(f"threshold.json: tau {tau!r} outside [0, 1]")
    correction = thr.get("correction") if isinstance(thr, dict) else None
    value = correction.get("value") if isinstance(correction, dict) else None
    if not _finite(value, 0.0):
        problems.append(f"threshold.json: correction value {value!r} not finite >= 0")
    rows, bad = _read_csv(outdir / "results.csv", RESULTS_COLUMNS)
    problems += bad
    if len(rows) != 1 and not bad:
        problems.append(f"results.csv: {len(rows)} rows, expected 1")
    problems += _check_result_rows(rows, p, "results.csv")
    if rows and _finite(tau, 0.0, 1.0) and rows[0].get("tau_hat") != tau:
        problems.append("results.csv: tau_hat differs from threshold.json")
    try:
        with open(outdir / "prediction_sets.csv", newline="") as handle:
            n_sets = sum(1 for _ in csv.reader(handle)) - 1
    except (OSError, csv.Error) as exc:
        problems.append(f"prediction_sets.csv: cannot read ({exc})")
    else:
        if n_sets != p.n_test:
            problems.append(f"prediction_sets.csv: {n_sets} rows, expected {p.n_test}")
    return problems


def check_synth(outdir: Path, workload: Workload) -> list[str]:
    p, reps, methods = workload.problem, workload.repetitions, workload.methods
    rows, problems = _read_csv(outdir / "results.csv", RESULTS_COLUMNS)
    if not problems and len(rows) != reps * len(methods):
        problems.append(f"results.csv: {len(rows)} rows, expected {reps * len(methods)}")
    problems += _check_result_rows(rows, p, "results.csv")
    summary, bad = _read_csv(
        outdir / "summary.csv", ("method", "repetitions", "mean_coverage")
    )
    problems += bad
    if not bad and sorted(r["method"] for r in summary) != sorted(methods):
        problems.append("summary.csv: methods differ from the config")
    floor = coverage_floor(p, reps)
    for row in summary:
        cov = row.get("mean_coverage")
        if row.get("repetitions") != reps:
            problems.append(f"summary.csv {row['method']}: repetitions {row.get('repetitions')!r}")
        if not _finite(cov, 0.0, 1.0):
            problems.append(f"summary.csv {row['method']}: coverage {cov!r} outside [0, 1]")
        elif row["method"] in GUARANTEED and cov < floor:
            problems.append(
                f"summary.csv {row['method']}: mean coverage {cov:.4f} below floor {floor:.4f}"
            )
    return problems
