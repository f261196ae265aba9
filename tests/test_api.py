"""The public surface of ``noisycal``, pinned so that a change to it is deliberate."""

import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

import noisycal
import noisycal.cli
import noisycal.fileio

from test_cli import dense_transition, run_python, write_cal_csv

PUBLIC_NAMES = {
    "BetaVector", "CalibrationMethod", "CalibrationSet", "CholeskyFailure",
    "ContaminationSpec", "CorrectionMethod", "CorrectionReport", "DegenerateData",
    "DimensionMismatch", "EmptyClass", "Family", "FileFormatError",
    "InflationCurve", "InsufficientVertices", "InvalidProbability", "InvalidSpec",
    "LadderMismatch", "LengthMismatch", "NoisycalError",
    "OPTIMISTIC_CAVEAT", "SingularM", "SingularTransition",
    "SoftmaxModel", "SolverFailure", "SynthConfig", "ThresholdResult",
    "TransitionMatrix", "adaptive_threshold", "aps_scores",
    "b_term", "build_transition", "c_of_n", "closed_form_inverse", "cn_envelope",
    "delta_asy", "delta_fs", "delta_fs_special", "delta_hat",
    "delta_star_star_bound", "estimate_covariance", "evaluate", "generate",
    "omega_matrix", "optimistic_threshold", "predict_probs", "prediction_sets",
    "sample_noisy_labels", "standard_threshold", "train_softmax",
    "upper_bound_diagnostics",
    "validate_probability_rows",
}


def test_public_api_is_pinned():
    exported = {
        name
        for name, value in vars(noisycal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 51


def test_fileio_and_cli_surfaces_are_pinned():
    assert noisycal.fileio.__all__ == [
        "RESULTS_HEADER",
        "SUMMARY_HEADER",
        "read_probability_csv",
        "write_probability_csv",
        "read_transition_csv",
        "write_results_csv",
        "write_summary_csv",
        "write_prediction_sets_csv",
        "write_threshold_json",
    ]
    assert noisycal.cli.__all__ == [
        "METHODS",
        "ExperimentConfig",
        "read_experiment_config",
        "run_synthetic",
        "run_from_scores",
        "correction_report",
        "main",
    ]


PACKAGE = Path(noisycal.__file__).parent
# the modules whose __all__ noisycal re-exports, in the order it imports them
REEXPORTED = ["calibrate", "correction", "empirical", "errors", "noise_model", "scores", "synth"]


def _defined_names(path):
    """The names a module binds at top level by a def, a class or an assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("module", REEXPORTED + ["fileio", "cli"])
def test_each_module_all_lists_its_public_names(module):
    # __all__ is the one list of a module's public names
    path = PACKAGE / f"{module}.py"
    public = {name for name in _defined_names(path) if not name.startswith("_")}
    assert public == set(importlib.import_module(f"noisycal.{module}").__all__)


def test_noisycal_reexports_each_modules_all():
    # __init__.py binds no public name itself: each comes from a module's
    # __all__ through one star import, in the order of REEXPORTED
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    imports = [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [(node.level, [a.name for a in node.names]) for node in imports] == [
        (1, ["*"])
    ] * len(REEXPORTED)
    assert [node.module for node in imports] == REEXPORTED
    assert all(name.startswith("_") for name in _defined_names(PACKAGE / "__init__.py"))
    exported = {
        name
        for name, value in vars(noisycal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = [importlib.import_module(f"noisycal.{module}") for module in REEXPORTED]
    assert exported == set().union(*(module.__all__ for module in modules))


def _calibration_set():
    rng = np.random.default_rng(3)
    return noisycal.CalibrationSet.from_scores(rng.random((20, 3)), np.arange(20) % 3)


_SPEC = dict(family="block_rr", k=4, eps=0.2, b=2)
# each public record, built afresh from the same inputs on every call
RECORDS = {
    "BetaVector": lambda: noisycal.BetaVector(1.0, np.zeros(3)),
    "CalibrationSet": _calibration_set,
    "ContaminationSpec": lambda: noisycal.ContaminationSpec(**_SPEC),
    "CorrectionReport": lambda: noisycal.cli.correction_report(
        noisycal.ContaminationSpec(**_SPEC), 1000
    ),
    "ExperimentConfig": lambda: noisycal.cli.ExperimentConfig(
        k=3, d=4, n_train=30, n_cal=30, n_test=30
    ),
    "InflationCurve": lambda: noisycal.delta_hat(_calibration_set(), np.eye(3)),
    "SoftmaxModel": lambda: noisycal.SoftmaxModel(np.zeros((3, 2)), 0, 0.0),
    "SynthConfig": lambda: noisycal.SynthConfig(k=3, d=4, n_train=30, n_cal=30, n_test=30),
    "ThresholdResult": lambda: noisycal.standard_threshold(_calibration_set(), 0.1),
    "TransitionMatrix": lambda: noisycal.build_transition(
        noisycal.ContaminationSpec(**_SPEC)
    ),
}
# records of scalars compare by value; a record with an array, dict or such
# record field compares by identity, so == and hash never touch an array
VALUE_RECORDS = {"ContaminationSpec", "ExperimentConfig", "SynthConfig"}


def test_every_public_record_is_listed():
    records = {
        name
        for module in (noisycal, noisycal.cli)
        for name, value in vars(module).items()
        if not name.startswith("_") and isinstance(value, type)
        and dataclasses.is_dataclass(value)
    }
    assert records == RECORDS.keys()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_hash_and_print(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and (a == b) is (name in VALUE_RECORDS)
    assert hash(a) == hash(a)
    if name in VALUE_RECORDS:
        assert hash(a) == hash(b)
    assert repr(a).startswith(f"{name}(")


_README_PROBE = """
import sys

exec(compile(sys.argv[1], "README.md", "exec"), {"__name__": "__main__"})
assert "scipy" not in sys.modules
"""


def readme_quick_start():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)


def test_readme_quick_start_runs_without_scipy():
    # the example's W has the block form of randomized response, so delta_fs
    # takes the closed form and never loads SciPy
    proc = run_python(["-c", _README_PROBE, readme_quick_start()])
    assert proc.returncode == 0, proc.stderr
    assert "tau =" in proc.stdout


_NO_SCIPY_PROBE = """
import sys

sys.modules["scipy"] = None

from noisycal import (
    ContaminationSpec, SolverFailure, build_transition, c_of_n, delta_fs,
    delta_star_star_bound,
)
from noisycal.cli import METHODS, main
from noisycal.fileio import read_transition_csv

quick_start, scores, transition, relabelled = sys.argv[1:]
exec(compile(quick_start, "README.md", "exec"), {"__name__": "__main__"})
argv = ["calibrate", "--scores", scores, "--model", "block_rr", "--eps", "0.1"]
for method in METHODS:
    assert main(argv + ["--b", "2", "--method", method]) == 0, method
spec = ContaminationSpec(family="block_rr", k=4, eps=0.1, b=2)
assert delta_star_star_bound(1000, 4, build_transition(spec)) > 0.0
tm = read_transition_csv(transition)
try:
    delta_fs(1000, tm.k, tm, c_of_n(1000))
    raise AssertionError("an LP ran without SciPy")
except SolverFailure as exc:
    assert "noisycal[lp]" in str(exc), exc
try:
    delta_fs(100, tm.k, tm, 1.0)
    raise AssertionError("an unbounded Massart branch was solved")
except SolverFailure as exc:
    assert "the Massart branch is unbounded below" in str(exc), exc
argv = ["calibrate", "--scores", scores, "--transition", transition]
assert main(argv + ["--method", "adaptive-fs"]) == 1
argv = ["calibrate", "--scores", scores, "--transition", relabelled]
assert main(argv + ["--method", "adaptive-fs"]) == 0
"""


def test_the_package_needs_numpy_alone(tmp_path):
    # SciPy is the optional lp extra: every route runs without it but the
    # LPs of a W without block form, which refuse with a typed error; an
    # unbounded branch is refused by name before any LP is built; a family's
    # T with its labels permuted keeps the block form
    scores, transition = tmp_path / "cal.csv", tmp_path / "t.csv"
    relabelled = tmp_path / "relabelled.csv"
    write_cal_csv(scores, seed=17, n=60, k=4)
    np.savetxt(str(transition), dense_transition(4, 17), delimiter=",", fmt="%.17g")
    spec = noisycal.ContaminationSpec(family="block_rr", k=4, eps=0.1, b=2)
    perm = [0, 2, 1, 3]
    t = noisycal.build_transition(spec).T[np.ix_(perm, perm)]
    np.savetxt(str(relabelled), t, delimiter=",", fmt="%.17g")
    argv = [
        "-c", _NO_SCIPY_PROBE, readme_quick_start(), str(scores), str(transition),
        str(relabelled),
    ]
    proc = run_python(argv)
    assert proc.returncode == 0, proc.stderr
    assert "tau =" in proc.stdout
    assert "error: a W without the block form needs SciPy" in proc.stderr


def test_only_fileio_opens_a_file():
    # every input file is read through fileio's one opener, so the messages
    # of an unreadable, undecodable or malformed file are stated once
    found = set()
    for path in sorted(Path(noisycal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "open") or (
                isinstance(node, ast.Attribute)
                and node.attr == "load"
                and getattr(node.value, "id", None) == "json"
            ):
                found.add(path.name)
    assert found == {"fileio.py"}
    # inside fileio only _reading calls open; anywhere else the name is only
    # handed to _writing, which opens an output file
    tree = ast.parse((Path(noisycal.__file__).parent / "fileio.py").read_text())

    def role(parent, name):
        if isinstance(parent, ast.Call) and parent.func is name:
            return "call"
        if (
            isinstance(parent, ast.Call)
            and getattr(parent.func, "id", None) == "_writing"
            and parent.args[0] is name
        ):
            return "_writing"
        return "other"

    uses = {
        (getattr(statement, "name", None), role(parent, child))
        for statement in tree.body
        for parent in ast.walk(statement)
        for child in ast.iter_child_nodes(parent)
        if isinstance(child, ast.Name) and child.id == "open"
    }
    assert {name for name, use in uses if use == "call"} == {"_reading"}
    assert {use for _, use in uses} == {"call", "_writing"}


# (module, attribute) pairs of bench/tracing.py's WRAPS that no longer
# resolve, so their per-layer metrics read 0: FOUND 8, 11, 35 and 77 of
# CHANGES.md, until the tracer reads a record instead (ROADMAP item 3)
STALE_TRACED_NAMES = {
    ("noisycal.calibrate", "build_cdfs"),
    ("noisycal.correction", "simulate_gbb_sup"),
    ("noisycal.correction", "linprog"),
    ("noisycal.cli", "delta_fs_special"),
}


def test_every_traced_name_resolves():
    # the tracer wraps each function under the name the package looks it up
    # by; a rename would silently zero that layer's metric.  WRAPS is read
    # from the file's syntax tree, so bench/ is only read
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    [wraps] = [
        node.value
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]
    ]
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in wraps.elts]
    unresolved = {
        (module, attr)
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert unresolved == STALE_TRACED_NAMES
