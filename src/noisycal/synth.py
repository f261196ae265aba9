"""Synthetic Gaussian-cluster classification data and a softmax classifier.

The generator places K * clusters_per_class unit-variance isotropic Gaussian
clusters at distinct random vertices of a d-dimensional hypercube (side
length ``cube_side``), assigns an equal number of clusters to each class via
a seeded permutation, and draws class labels with probabilities proportional
to exp(-mu * k).  The classifier is a plain L2-regularized softmax
regression; the calibration machinery is classifier-agnostic, so anything
producing probability rows works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientVertices,
    InvalidSpec,
    _check_int,
)

__all__ = [
    "SynthConfig",
    "SoftmaxModel",
    "generate",
    "train_softmax",
    "predict_probs",
]


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic data generator."""

    k: int
    d: int
    n_train: int
    n_cal: int
    n_test: int
    clusters_per_class: int = 2
    cube_side: float = 2.0
    imbalance_mu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k", "d", "n_train", "n_cal", "n_test", "clusters_per_class"):
            _check_int(name, getattr(self, name), 1)
        if self.cube_side <= 0.0:
            raise InvalidSpec("cube_side must be positive")
        if self.imbalance_mu < 0.0:
            raise InvalidSpec("imbalance_mu must be nonnegative")
        if 2 * self.k * self.clusters_per_class > 2**self.d:
            raise InsufficientVertices(
                f"need 2*K*clusters_per_class = {2 * self.k * self.clusters_per_class} "
                f"<= 2^d = {2**self.d} hypercube vertices"
            )

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_cal + self.n_test


@dataclass(frozen=True)
class SoftmaxModel:
    """Affine softmax classifier; last weight row is the bias."""

    weights: NDArray[np.float64]
    iterations: int
    final_loss: float

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise InvalidSpec("weights must be a finite (d+1) x K matrix")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def generate(config: SynthConfig) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Draw the full data set (train + calibration + test rows).

    Returns (X, Y) with ``config.n_total`` rows; callers slice the three
    splits off in order.  Deterministic given the seed.
    """
    rng = np.random.default_rng(config.seed)
    k, d, cpc = config.k, config.d, config.clusters_per_class
    total_clusters = k * cpc

    seen: set[bytes] = set()
    vertices = []
    while len(vertices) < total_clusters:
        cand = rng.integers(0, 2, size=d)
        key = cand.tobytes()
        if key not in seen:
            seen.add(key)
            vertices.append(cand)
    centers = (2.0 * np.array(vertices) - 1.0) * (config.cube_side / 2.0)

    # equal split of clusters over classes, assignment by seeded permutation
    cluster_class = np.empty(total_clusters, dtype=np.int64)
    cluster_class[rng.permutation(total_clusters)] = np.repeat(np.arange(k), cpc)
    class_clusters = np.stack(
        [np.flatnonzero(cluster_class == label) for label in range(k)]
    )

    rho = np.exp(-config.imbalance_mu * np.arange(k))
    rho /= rho.sum()
    n = config.n_total
    y = rng.choice(k, size=n, p=rho)
    member = rng.integers(0, cpc, size=n)
    x = centers[class_clusters[y, member]] + rng.standard_normal((n, d))
    return x, y.astype(np.int64)


def _loss_and_probs(
    xb: NDArray[np.float64],
    y: NDArray[np.int64],
    weights: NDArray[np.float64],
    l2: float,
) -> tuple[float, NDArray[np.float64]]:
    logits = xb @ weights
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = xb.shape[0]
    nll = -float(
        np.mean(logits[np.arange(n), y] - np.log(expl.sum(axis=1)))
    )
    penalty = 0.5 * l2 * float(np.sum(weights[:-1] ** 2))
    return nll + penalty, probs


def train_softmax(
    x: NDArray[np.float64],
    y: NDArray[np.int64],
    l2: float = 1e-3,
    iters: int = 500,
    lr: float = 0.1,
    n_classes: int | None = None,
) -> SoftmaxModel:
    """Full-batch gradient descent on regularized cross-entropy.

    The step size halves (with the step reverted) whenever a step would
    increase the loss, so the recorded loss is nonincreasing.  The bias row
    is excluded from the penalty.  Zero-initialized, hence zero iterations
    yield the uniform predictor.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch("x must be n x d with a length-n label vector")
    if np.unique(y).size < 2:
        raise DegenerateData("training labels contain fewer than 2 classes")
    if iters < 0 or lr <= 0.0 or l2 < 0.0:
        raise InvalidSpec("need iters >= 0, lr > 0 and l2 >= 0")
    k = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if y.max() >= k:
        raise InvalidSpec(f"labels exceed n_classes = {k}")
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    weights = np.zeros((d + 1, k))
    loss, probs = _loss_and_probs(xb, y, weights, l2)
    step = lr
    performed = 0
    for _ in range(iters):
        grad = xb.T @ (probs - onehot) / n
        grad[:-1] += l2 * weights[:-1]
        while True:
            cand = weights - step * grad
            cand_loss, cand_probs = _loss_and_probs(xb, y, cand, l2)
            if cand_loss <= loss or step < 1e-12:
                break
            step *= 0.5
        if cand_loss > loss:
            break
        weights, loss, probs = cand, cand_loss, cand_probs
        performed += 1
    return SoftmaxModel(weights=weights, iterations=performed, final_loss=loss)


def predict_probs(model: SoftmaxModel, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Softmax probabilities for each row of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] + 1 != model.weights.shape[0]:
        raise DimensionMismatch(
            f"x has {x.shape[1] if x.ndim == 2 else '?'} features, "
            f"model expects {model.weights.shape[0] - 1}"
        )
    logits = np.hstack([x, np.ones((x.shape[0], 1))]) @ model.weights
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    return expl / expl.sum(axis=1, keepdims=True)
