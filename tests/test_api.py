"""The public surface of ``noisycal``, pinned so that a change to it is deliberate."""

import types

import noisycal
import noisycal.cli
import noisycal.fileio

PUBLIC_NAMES = {
    "BetaVector", "CalibrationMethod", "CalibrationSet", "CholeskyFailure",
    "ContaminationSpec", "CorrectionMethod", "CorrectionReport", "DegenerateData",
    "DimensionMismatch", "EmptyClass", "Family", "FileFormatError",
    "InflationCurve", "InsufficientVertices", "InvalidProbability", "InvalidSpec",
    "LadderMismatch", "LengthMismatch", "NoisycalError",
    "OPTIMISTIC_CAVEAT", "SingularM", "SingularTransition",
    "SoftmaxModel", "SolverFailure", "SynthConfig", "ThresholdResult",
    "TransitionMatrix", "TwoLevelDerived", "adaptive_threshold", "aps_scores",
    "b_term", "build_transition", "c_of_n", "closed_form_inverse", "cn_envelope",
    "delta_asy", "delta_fs", "delta_fs_special", "delta_hat",
    "delta_star_star_bound", "estimate_covariance", "evaluate", "generate",
    "omega_matrix", "optimistic_threshold", "predict_probs", "prediction_sets",
    "sample_noisy_labels", "standard_threshold", "train_softmax",
    "transition_from_matrix", "two_level_constants", "upper_bound_diagnostics",
    "validate_probability_rows",
}


def test_public_api_is_pinned():
    exported = {
        name
        for name, value in vars(noisycal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54


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
