"""The public surface of ``noisycal``, pinned so that a change to it is deliberate."""

import re
import types
from pathlib import Path

import noisycal
import noisycal.cli
import noisycal.fileio

from test_cli import run_python

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
    "transition_from_matrix", "upper_bound_diagnostics",
    "validate_probability_rows",
}


def test_public_api_is_pinned():
    exported = {
        name
        for name, value in vars(noisycal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 52


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


_README_PROBE = """
import sys

exec(compile(sys.argv[1], "README.md", "exec"), {"__name__": "__main__"})
assert "scipy" not in sys.modules
"""


def test_readme_quick_start_runs_without_scipy():
    # the example's W has the block form of randomized response, so delta_fs
    # takes the closed form and never loads SciPy
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    proc = run_python(["-c", _README_PROBE, code])
    assert proc.returncode == 0, proc.stderr
    assert "tau =" in proc.stdout
