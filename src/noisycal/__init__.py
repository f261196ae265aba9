"""Conformal prediction sets that stay valid under label contamination.

Calibration labels observed through a known column-stochastic transition
matrix bias the usual split-conformal quantile.  This package estimates the
induced inflation of the empirical coverage, corrects it with either a
finite-sample optimized bound or an asymptotic Monte-Carlo estimate, and
calibrates thresholds whose marginal coverage is certified despite the
contamination.
"""

from .calibrate import (
    OPTIMISTIC_CAVEAT,
    CalibrationMethod,
    ThresholdResult,
    adaptive_threshold,
    evaluate,
    optimistic_threshold,
    prediction_sets,
    standard_threshold,
)
from .correction import (
    BetaVector,
    CorrectionMethod,
    CorrectionReport,
    b_term,
    c_of_n,
    cn_envelope,
    delta_asy,
    delta_fs,
    delta_fs_special,
    delta_star_star_bound,
    estimate_covariance,
    omega_matrix,
    upper_bound_diagnostics,
)
from .empirical import CalibrationSet, InflationCurve, delta_hat
from .errors import (
    CholeskyFailure,
    DegenerateData,
    DimensionMismatch,
    EmptyClass,
    FileFormatError,
    InsufficientVertices,
    InvalidProbability,
    InvalidSpec,
    LadderMismatch,
    LengthMismatch,
    NoisycalError,
    SingularM,
    SingularTransition,
    SolverFailure,
)
from .noise_model import (
    ContaminationSpec,
    Family,
    TransitionMatrix,
    TwoLevelDerived,
    build_transition,
    closed_form_inverse,
    sample_noisy_labels,
    transition_from_matrix,
    two_level_constants,
)
from .scores import aps_scores, validate_probability_rows
from .synth import (
    SoftmaxModel,
    SynthConfig,
    generate,
    predict_probs,
    train_softmax,
)

__version__ = "0.1.0"
