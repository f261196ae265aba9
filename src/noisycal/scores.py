"""Non-conformity scores (APS family).

Scores are a plain n x K float array with entries in [0, 1]: entry [i, k] is
the score of label k for row i.  The library builds one score, APS, from
probability rows, each a length-K vector summing to 1 and checked by
``validate_probability_rows``.  The APS score of label k is the cumulative
sum of the descending sorted probabilities down to and including the rank
of k; the randomized variant subtracts U * pi(x, k) with a single uniform U
shared by all labels of a row.  Ties between probabilities are broken by
ascending label index, so scores are reproducible.

Scores from outside the library (an ``s_*`` file) pass through
``_clip_scores``; library code checks an array it is handed with
``_require_scores``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidProbability, InvalidSpec, _check_array, _check_int, _check_type

__all__ = [
    "validate_probability_rows",
    "aps_scores",
]


def _require_scores(scores, tol: float) -> NDArray[np.float64]:
    """The scores as a float array, checked to be 2-d, finite and within
    [-tol, 1 + tol]; InvalidSpec names the first entry that is not."""
    s = _check_array("scores", scores, ndim=2)
    bad = (s < -tol) | (s > 1.0 + tol)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvalidSpec(
            f"scores must be in [0, 1]; row {i}, column {j} (0-based) is {s[i, j]}"
        )
    return s


def _clip_scores(scores) -> NDArray[np.float64]:
    """Scores read from a file, checked and clipped to [0, 1].

    Cumulative sums written by other tools may overshoot [0, 1] by rounding,
    so entries within 1e-9 of the interval are clipped; anything further out
    raises InvalidSpec.
    """
    return np.clip(_require_scores(scores, tol=1e-9), 0.0, 1.0)


def validate_probability_rows(probs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Validate and renormalize an n x K stack of probability rows.

    Rows whose sum deviates from 1 by at most 1e-6 are renormalized; larger
    deviations or negative entries raise InvalidProbability, and an entry
    that is not finite raises InvalidSpec.
    """
    p = _check_array("probs", probs)
    if p.ndim != 2 or p.shape[1] < 1:
        raise InvalidProbability(f"expected an n x K matrix, got shape {p.shape}")
    if p.min(initial=0.0) < -1e-9:
        raise InvalidProbability("probability entries must be nonnegative")
    p = np.clip(p, 0.0, None)
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidProbability(
            f"row {i} sums to {sums[i]:.8f}; deviation from 1 exceeds 1e-6"
        )
    return p / sums[:, None]


def aps_scores(
    probs: NDArray[np.float64],
    randomized: bool = False,
    seed: int = 0,
) -> NDArray[np.float64]:
    """Generalized inverse-quantile (APS) scores for each row and label.

    Parameters
    ----------
    probs : ndarray
        n x K probability rows (validated and renormalized on ingest).
    randomized : bool
        Subtract U * probs with one uniform U per row, shared across labels;
        anything but a bool raises InvalidSpec.
    seed : int
        Seed for the randomization draws; the deterministic variant consumes
        no randomness.

    Returns
    -------
    ndarray
        n x K scores in [0, 1]; s(x, k) is the cumulative sum of the descending
        sorted probabilities down to the rank of k.
    """
    _check_type("randomized", randomized, bool)
    _check_int("seed", seed, 0)
    p = validate_probability_rows(probs)
    n = p.shape[0]
    # argsort of -p with a stable sort ranks ties by ascending label index
    order = np.argsort(-p, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
    s = np.empty_like(csum)
    np.put_along_axis(s, order, csum, axis=1)
    if randomized:
        s = s - np.random.default_rng(seed).random(n)[:, None] * p
    return np.clip(s, 0.0, 1.0)
