"""Span tracing of one CLI operation, from the benchmark's own files.

Run as a script, this is a traced operation::

    python3 bench/tracing.py SPANS.json -- <noisycal CLI arguments>

It times ``import noisycal`` as the span ``cli.import``, replaces each public
function the CLI reaches with a wrapper that records a span, calls
``noisycal.cli.main(argv)`` under the root span ``cli.main``, and writes all
spans to SPANS.json once, at exit.  The operation runs in a fresh process,
like an untraced one, so the import cost and the per-process ``c(n)`` cache
are the same in both.

Functions are wrapped under the name by which they are looked up: globals of
``noisycal.cli``, ``noisycal.calibrate`` and ``noisycal.correction`` (where
``linprog`` is wrapped too), and the readers and writers of
``noisycal.fileio``.  A function that has been renamed or removed is listed
as absent and its metrics read 0; the traced run still completes.

Imported by ``run.py`` for :func:`command` and :func:`per_layer`; this
module needs only the standard library until the traced child imports
``noisycal``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

_MIB = float(2**20)


def _rows_in(args, kwargs, result):
    return "scores.rows", len(args[0]), sum


def _sets_rows(args, kwargs, result):
    return "calibrate.sets_rows", len(result), sum


def _train_iters(args, kwargs, result):
    return "synth.train_iters", int(result.iterations), sum


def _mc_normals(args, kwargs, result):
    cov = args[0]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return "correction.mc_normals", int(m) * len(cov.grid), sum


def _lp_matrix(args, kwargs, result):
    a = kwargs["A_ub"] if "A_ub" in kwargs else args[1]
    if hasattr(a, "indices"):  # scipy.sparse CSR/CSC
        nbytes = a.data.nbytes + a.indices.nbytes
    else:
        import numpy as np

        nbytes = np.asarray(a).nbytes
    return "correction.lp_matrix_mb", nbytes / _MIB, max


def _bytes_read(args, kwargs, result):
    return "fileio.bytes_read", os.path.getsize(args[0]), sum


def _bytes_written(args, kwargs, result):
    return "fileio.bytes_written", os.path.getsize(args[0]), sum


# (module, attribute, span name, counter hook)
WRAPS = (
    ("noisycal.cli", "generate", "synth.generate", None),
    ("noisycal.cli", "train_softmax", "synth.train", _train_iters),
    ("noisycal.cli", "predict_probs", "synth.predict", None),
    ("noisycal.cli", "build_transition", "noise_model", None),
    ("noisycal.cli", "sample_noisy_labels", "noise_model", None),
    ("noisycal.cli", "aps_scores", "scores.aps", _rows_in),
    ("noisycal.cli", "c_of_n", "correction.c_of_n", None),
    ("noisycal.cli", "delta_fs", "correction.delta_fs", None),
    ("noisycal.cli", "delta_fs_special", "correction.delta_fs_special", None),
    ("noisycal.cli", "delta_asy", "correction.delta_asy", None),
    ("noisycal.cli", "standard_threshold", "calibrate.threshold", None),
    ("noisycal.cli", "adaptive_threshold", "calibrate.threshold", None),
    ("noisycal.cli", "optimistic_threshold", "calibrate.threshold", None),
    ("noisycal.cli", "prediction_sets", "calibrate.sets", _sets_rows),
    ("noisycal.cli", "evaluate", "calibrate.evaluate", None),
    ("noisycal.calibrate", "build_cdfs", "empirical.build_cdfs", None),
    ("noisycal.calibrate", "delta_hat", "empirical.delta_hat", None),
    ("noisycal.correction", "estimate_covariance", "correction.estimate_covariance", None),
    ("noisycal.correction", "simulate_gbb_sup", "correction.simulate_gbb_sup", _mc_normals),
    ("noisycal.correction", "linprog", "correction.lp", _lp_matrix),
)


class Recorder:
    """In-memory spans ``[name, parent index, start, end]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    @contextmanager
    def span(self, name: str):
        # a wrapped function reached again inside its own span is not re-counted
        if self.stack and self.spans[self.stack[-1]][0] == name:
            yield
            return
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    counter, value, combine = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    if f"{name} counter" not in self.absent:
                        self.absent.append(f"{name} counter")
                else:
                    old = self.counts.get(counter)
                    self.counts[counter] = value if old is None else combine((old, value))
            return result

        return wrapper

    def install(self, wraps=WRAPS, fileio_module: str = "noisycal.fileio") -> None:
        """Wrap every function named in ``wraps`` and the fileio readers/writers.

        A module or function that cannot be found is recorded as absent.
        """
        for module_name, attr, span, hook in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span, hook))
        try:
            fileio = importlib.import_module(fileio_module)
        except ImportError:
            self.absent.append(fileio_module)
            return
        for attr in getattr(fileio, "__all__", dir(fileio)):
            fn = getattr(fileio, attr, None)
            if not callable(fn):
                continue
            if attr.startswith("read_"):
                setattr(fileio, attr, self.wrap(fn, "fileio.read", _bytes_read))
            elif attr.startswith("write_"):
                setattr(fileio, attr, self.wrap(fn, "fileio.write", _bytes_written))


def _traced_main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <noisycal arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    code = 1
    try:
        with rec.span("cli.import"):
            cli = importlib.import_module("noisycal.cli")
        rec.install()
        with rec.span("cli.main"):
            code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(
                {"spans": rec.spans, "counts": rec.counts, "absent": rec.absent,
                 "exit_code": code},
                handle,
            )
    return code


# ---------------------------------------------------------------------------
# per-layer metrics, computed by run.py from the traced operations
# ---------------------------------------------------------------------------


def command(spans_path: Path, cli_argv: list[str]) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), str(spans_path), "--", *cli_argv]


def _span_total(name):
    return lambda s: s["total"][name]


def _span_self(name):
    return lambda s: s["self"][name]


def _span_calls(name):
    return lambda s: s["calls"][name]


def _count(name):
    return lambda s: s["counts"].get(name, 0)


# name -> (unit, value from one traced operation's summary)
LAYER_METRICS = {
    "cli.import_s": ("s", _span_total("cli.import")),
    "cli.self_s": ("s", _span_self("cli.main")),
    "fileio.read_s": ("s", _span_total("fileio.read")),
    "fileio.bytes_read": ("bytes", _count("fileio.bytes_read")),
    "fileio.write_s": ("s", _span_total("fileio.write")),
    "fileio.bytes_written": ("bytes", _count("fileio.bytes_written")),
    "scores.aps_s": ("s", _span_total("scores.aps")),
    "scores.rows": ("count", _count("scores.rows")),
    "noise_model.s": ("s", _span_total("noise_model")),
    "empirical.build_cdfs_s": ("s", _span_total("empirical.build_cdfs")),
    "empirical.delta_hat_s": ("s", _span_total("empirical.delta_hat")),
    "empirical.delta_hat_calls": ("count", _span_calls("empirical.delta_hat")),
    "correction.c_of_n_s": ("s", _span_total("correction.c_of_n")),
    "correction.c_of_n_calls": ("count", _span_calls("correction.c_of_n")),
    "correction.delta_fs_s": ("s", _span_total("correction.delta_fs")),
    "correction.lp_s": ("s", _span_total("correction.lp")),
    "correction.lp_calls": ("count", _span_calls("correction.lp")),
    "correction.lp_matrix_mb": ("MiB", _count("correction.lp_matrix_mb")),
    "correction.delta_asy_s": ("s", _span_total("correction.delta_asy")),
    "correction.delta_asy_self_s": ("s", _span_self("correction.delta_asy")),
    "correction.estimate_covariance_s": ("s", _span_total("correction.estimate_covariance")),
    "correction.simulate_gbb_sup_s": ("s", _span_total("correction.simulate_gbb_sup")),
    "correction.simulate_calls": ("count", _span_calls("correction.simulate_gbb_sup")),
    "correction.mc_normals": ("count", _count("correction.mc_normals")),
    "calibrate.threshold_s": ("s", _span_total("calibrate.threshold")),
    "calibrate.sets_s": ("s", _span_total("calibrate.sets")),
    "calibrate.sets_rows": ("count", _count("calibrate.sets_rows")),
    "calibrate.evaluate_s": ("s", _span_total("calibrate.evaluate")),
    "synth.generate_s": ("s", _span_total("synth.generate")),
    "synth.train_s": ("s", _span_total("synth.train")),
    "synth.train_iters": ("count", _count("synth.train_iters")),
    "synth.predict_s": ("s", _span_total("synth.predict")),
    "trace.op_s": ("s", lambda s: s["wall_s"]),
    "trace.coverage": ("ratio", lambda s: s["top_s"] / s["wall_s"]),
}

SETUP_PHASES = ("generate", "noise_model", "train", "predict", "write", "import")


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-name total, self time and call count of one traced operation."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    top = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        if name == "cli.import" or (parent is not None and spans[parent][0] == "cli.main"):
            top += end - start
    return {"total": total, "self": own, "calls": calls, "top_s": top, "wall_s": wall_s}


def per_layer(untraced: list, traced: list, setup_phases: dict) -> dict:
    """Medians over the traced operations, plus overhead against untraced ones."""
    summaries = []
    for op in traced:
        summary = summarize(op.spans["spans"], op.wall_s)
        summary["counts"] = op.spans["counts"]
        summaries.append(summary)
    metrics = {
        name: {"value": float(statistics.median(fn(s) for s in summaries)), "unit": unit}
        for name, (unit, fn) in LAYER_METRICS.items()
    }
    untraced_wall = statistics.median(o.wall_s for o in untraced)
    metrics["trace.overhead_s"] = {
        "value": float(metrics["trace.op_s"]["value"] - untraced_wall), "unit": "s"
    }
    metrics["cli.cpu_s"] = {
        "value": float(statistics.median(o.cpu_s for o in untraced)), "unit": "s"
    }
    for phase in SETUP_PHASES:
        metrics[f"setup.{phase}_s"] = {
            "value": float(setup_phases.get(f"setup.{phase}", 0.0)), "unit": "s"
        }
    return metrics


def absent(traced: list) -> list[str]:
    return sorted({name for op in traced for name in op.spans["absent"]})


if __name__ == "__main__":
    sys.exit(_traced_main(sys.argv[1:]))
