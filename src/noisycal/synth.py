"""Synthetic Gaussian-cluster classification data and a softmax classifier.

The generator places K * clusters_per_class unit-variance isotropic Gaussian
clusters at distinct random vertices of a d-dimensional hypercube (side
length ``cube_side``), assigns an equal number of clusters to each class via
a seeded permutation, and draws class labels with probabilities proportional
to exp(-mu * k).  The classifier is L2-regularized softmax regression fitted
to its optimum: damped Newton with backtracking until the gradient is below
a fixed tolerance, with the last class's bias pinned at zero because the
unpenalized biases are invariant under a common shift.  A Newton step
takes one of two routes, by the number of parameters K(d+1):

* up to ``_DENSE_LIMIT`` = 500, it builds the K(d+1) x K(d+1) Hessian from
  one Gram product per chunk of about 1 MiB of rows p_i kron x_i, reads each
  diagonal block off the zero sum of its block row and solves densely, at
  O(n K^2 (d+1)^2 + K^3 (d+1)^3) time and O(K^2 (d+1)^2) memory;
* above it, it never forms the Hessian: preconditioned conjugate gradients
  on Hessian-vector products, O(n K (d+1)) each, solve the system inexactly
  (line-search Newton-CG, Nocedal & Wright, Numerical Optimization, 7.1),
  in O(n K + K (d+1)^2) memory beside the data.

The dense route's cost grows with the square of the parameter count, the CG
route's about linearly with it times the CG iterations, so neither serves
both ends: on 2 vCPUs at n = 10,000 the dense route fits K(d+1) = 84 in
39 ms against 161 ms by CG, which route is faster between 410 and 504
depends on d and n, and CG fits K = 200, d = 20 (4200) in 1.7 s against
44 s.  The calibration machinery is classifier-agnostic, so anything
producing probability rows works.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientVertices,
    _check_array,
    _check_int,
    _check_label_vector,
    _check_real,
    _check_type,
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
        _check_int("seed", self.seed, 0)
        _check_real("cube_side", self.cube_side, 0.0, np.inf, "()")
        _check_real("imbalance_mu", self.imbalance_mu, 0.0, np.inf, "[)")
        if 2 * self.k * self.clusters_per_class > 2**self.d:
            raise InsufficientVertices(
                f"need 2*K*clusters_per_class = {2 * self.k * self.clusters_per_class} "
                f"<= 2^d = {2**self.d} hypercube vertices"
            )

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_cal + self.n_test


@dataclass(frozen=True, eq=False)
class SoftmaxModel:
    """Affine softmax classifier; last weight row is the bias."""

    weights: NDArray[np.float64]
    iterations: int
    final_loss: float

    def __post_init__(self) -> None:
        w = _check_array("weights", self.weights, ndim=2).copy()
        _check_int("iterations", self.iterations, 0)
        _check_real("final_loss", self.final_loss)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def generate(config: SynthConfig) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Draw the full data set (train + calibration + test rows).

    Returns (X, Y) with ``config.n_total`` rows; callers slice the three
    splits off in order.  Deterministic given the seed.
    """
    _check_type("config", config, SynthConfig)
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
    x = rng.standard_normal((n, d))
    x += centers[class_clusters[y, member]]
    return x, y.astype(np.int64)


# Weight of the ridge penalty 0.5 * _L2 * ||W[:-1]||^2 (the bias row is free).
_L2 = 1e-3
# Newton stops once every gradient entry is this small, or after this many steps.
_GRAD_TOL = 1e-9
_MAX_NEWTON_STEPS = 100
# Backtracking line search: Armijo fraction, step shrink factor, most shrinks.
_ARMIJO = 0.25
_SHRINK = 0.5
_MAX_SHRINKS = 40
# Entries of p_i kron x_i per Hessian chunk: 2**17 float64, 1 MiB.
_CHUNK_ENTRIES = 2**17
# Largest K(d+1) whose Newton steps form the Hessian; above it each step is
# solved by conjugate gradients on Hessian-vector products.  Dense fits were
# faster at every measured shape up to 360 parameters and CG fits from 576
# on; in between, which one wins depends on d and n.
_DENSE_LIMIT = 500


def _row_max(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """The largest entry of each row of a, as a column.

    One ``np.maximum`` per column: exact, like ``a.max(axis=1)``, which
    reduces row by row and so runs ~25x slower at K = 4 columns.
    """
    return reduce(np.maximum, a.T)[:, None]


def _row_sum(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """The sum of each row of a, adding its columns left to right.

    One ``np.add`` per column, ~9x faster than ``a.sum(axis=1)`` at 10,000
    x 4.  Below 8 columns NumPy's row sum also adds left to right, so the two
    agree bitwise; from 8 columns on its pairwise sum rounds differently.
    """
    return reduce(np.add, a.T)


def _loss_and_probs(
    xb: NDArray[np.float64],
    y: NDArray[np.int64],
    weights: NDArray[np.float64],
) -> tuple[float, NDArray[np.float64]]:
    logits = xb @ weights
    logits -= _row_max(logits)
    expl = np.exp(logits)
    total = _row_sum(expl)
    probs = expl / total[:, None]
    n = xb.shape[0]
    nll = -float(np.mean(logits[np.arange(n), y] - np.log(total)))
    penalty = 0.5 * _L2 * float(np.sum(weights[:-1] ** 2))
    return nll + penalty, probs


def _hessian(
    xb: NDArray[np.float64], probs: NDArray[np.float64], l2: float
) -> NDArray[np.float64]:
    """Hessian of the objective, parameters ordered class by class.

    The cross-entropy part is sum_i (diag p_i - p_i p_i^T) kron x_i x_i^T / n.
    Its off-diagonal blocks are those of -A^T A, where row i of A is
    p_i kron x_i.  A^T A is accumulated over chunks of about 1 MiB of A
    (``_CHUNK_ENTRIES`` float64 entries, at least 256 rows), one Gram product
    per chunk into one reused buffer, so no n x K(d+1) matrix is ever formed.
    Every p_i sums to 1, so each block row of the cross-entropy part sums to
    zero: each diagonal block is minus the sum of the other blocks in its
    row.  Taking it as sum_i p_ic x_i x_i^T minus A^T A's block instead
    would subtract two nearly equal sums as p_ic -> 1.  A call costs
    O(n K^2 (d+1)^2).
    """
    n, m = xb.shape
    k = probs.shape[1]
    size = k * m
    rows = max(256, _CHUNK_ENTRIES // size)
    hess = np.zeros((size, size))
    gram = np.empty((size, size))
    chunk = np.empty((min(rows, n), k, m))
    for start in range(0, n, rows):
        xc = xb[start : start + rows]
        a = chunk[: xc.shape[0]]
        np.einsum("ic,ij->icj", probs[start : start + rows], xc, out=a)
        a = a.reshape(xc.shape[0], size)
        np.matmul(a.T, a, out=gram)
        hess -= gram
    del gram, chunk
    blocks = hess.reshape(k, m, k, m)
    diagonal = np.arange(k)
    blocks[diagonal, :, diagonal] = 0.0
    blocks[diagonal, :, diagonal] = -blocks.sum(axis=2)
    hess /= n
    penalized = np.arange(size) % m != m - 1
    hess[penalized, penalized] += l2
    return hess


def _cg_step(
    xb: NDArray[np.float64],
    probs: NDArray[np.float64],
    g: NDArray[np.float64],
    l2: float,
) -> NDArray[np.float64]:
    """An inexact Newton step s with H s ~ -g, H never formed.

    Parameters are ordered class by class as in ``_hessian``, and the last
    (the pinned bias) stays zero in s.  Preconditioned conjugate gradients
    on the products H v = Xb^T [P o (U - rowsum(P o U))] / n + l2 v, with
    U = Xb V for V the K x (d+1) view of v and the ridge on every weight but
    the biases, at O(n K (d+1)) each.  The preconditioner is the exact
    class-diagonal blocks sum_i p_ic (1 - p_ic) x_i x_i^T / n + ridge,
    inverted once per step at O(n K (d+1)^2 + K (d+1)^3).  CG stops once
    ||r|| <= min(0.5, sqrt(||g||)) ||g|| (Dembo, Eisenstat & Steihaug's
    forcing term, which keeps Newton superlinear), after K(d+1) iterations,
    or on a direction of nonpositive curvature, which rounding can make of a
    near-singular H: then the step so far is returned, or on the first
    iteration that direction itself, the preconditioned -g.
    """
    n, m = xb.shape
    k = probs.shape[1]

    def hess_vec(v):
        u = xb @ v.T
        u *= probs
        u -= probs * u.sum(axis=1, keepdims=True)
        out = u.T @ xb
        out /= n
        out[:, :-1] += l2 * v[:, :-1]
        out[-1, -1] = 0.0
        return out

    # the blocks as one product per chunk of about 1 MiB of rows x_i kron x_i
    curvature = probs * (1.0 - probs)
    rows = max(1, _CHUNK_ENTRIES // (m * m))
    blocks = np.zeros((k, m * m))
    for start in range(0, n, rows):
        xc = xb[start : start + rows]
        outer = (xc[:, :, None] * xc[:, None, :]).reshape(xc.shape[0], m * m)
        blocks += curvature[start : start + rows].T @ outer
    blocks = blocks.reshape(k, m, m) / n
    weight = np.arange(m - 1)
    blocks[:, weight, weight] += l2
    # the pinned bias: an identity row and column keep its entry at zero
    blocks[-1, -1, :] = 0.0
    blocks[-1, :, -1] = 0.0
    blocks[-1, -1, -1] = 1.0
    inverse = np.linalg.inv(blocks)

    r = -g.reshape(k, m)
    r[-1, -1] = 0.0
    gnorm = float(np.linalg.norm(r))
    tol = min(0.5, np.sqrt(gnorm)) * gnorm
    s = np.zeros((k, m))
    z = np.matmul(inverse, r[:, :, None])[:, :, 0]
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(k * m):
        hp = hess_vec(p)
        php = float(np.vdot(p, hp))
        if php <= 0.0:
            if it == 0:
                s = p
            break
        a = rz / php
        s += a * p
        r -= a * hp
        if float(np.linalg.norm(r)) <= tol:
            break
        z = np.matmul(inverse, r[:, :, None])[:, :, 0]
        rz, rz_old = float(np.vdot(r, z)), rz
        p *= rz / rz_old
        p += z
    return s.ravel()


def train_softmax(
    x: NDArray[np.float64],
    y: NDArray[np.int64],
    n_classes: int | None = None,
) -> SoftmaxModel:
    """Minimize mean cross-entropy + 0.5 * _L2 * ||W[:-1]||^2 by damped Newton.

    W is (d+1) x K with the bias in its last row, which is not penalized.
    Shifting every bias by the same amount leaves the objective unchanged,
    so the last class's bias is pinned at zero, which makes the objective
    strictly convex in the other entries.  From W = 0, each Newton step is
    shortened by backtracking until the loss falls enough (Armijo), and the
    fit stops once every gradient entry is below ``_GRAD_TOL``, after
    ``_MAX_NEWTON_STEPS`` steps, or when backtracking finds no step that
    lowers the loss enough.
    Up to ``_DENSE_LIMIT`` parameters K(d+1), the step solves the Newton
    system exactly with the Hessian formed (``_hessian``), at O(n K^2
    (d+1)^2) per step; above it, conjugate gradients solve it inexactly from
    Hessian-vector products (``_cg_step``), at O(n K (d+1)) per product and
    without the (K(d+1))^2 matrix, which at K = 200, d = 20 alone takes
    135 MiB.  Both routes reach the same optimum to the gradient tolerance.
    ``iterations`` counts the Newton steps taken: zero when W = 0 is
    already optimal.  A class absent from ``y`` (possible with a larger
    ``n_classes``) has no finite optimum; its probability is driven below
    the tolerance instead.
    """
    x = _check_array("x", x)
    y = _check_array("training labels", y, None)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch("x must be n x d with a length-n label vector")
    if n_classes is not None:
        _check_int("n_classes", n_classes, 2)
    y = _check_label_vector("training labels", y, n_classes)
    if y.size == 0 or y.min() == y.max():
        raise DegenerateData("training labels contain fewer than 2 classes")
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    at_label = (np.arange(n), y)

    weights = np.zeros((d + 1, k))
    loss, probs = _loss_and_probs(xb, y, weights)
    steps = 0
    while steps < _MAX_NEWTON_STEPS:
        residual = probs.copy()
        residual[at_label] -= 1.0
        grad = xb.T @ residual / n
        del residual  # before _hessian fills its chunk buffer
        grad[:-1] += _L2 * weights[:-1]
        if np.abs(grad).max() <= _GRAD_TOL:
            break
        # parameters class by class, so the pinned bias is the last entry
        g = grad.T.ravel()
        if g.size <= _DENSE_LIMIT:
            hess = _hessian(xb, probs, _L2)
            step = np.append(np.linalg.solve(hess[:-1, :-1], -g[:-1]), 0.0)
            del hess  # before the next step builds its own
        else:
            step = _cg_step(xb, probs, g, _L2)
        direction = step.reshape(k, d + 1).T
        slope = float(g @ step)
        t = 1.0
        for _ in range(_MAX_SHRINKS):
            cand = weights + t * direction
            cand_loss, cand_probs = _loss_and_probs(xb, y, cand)
            if cand_loss <= loss + _ARMIJO * t * slope:
                break
            t *= _SHRINK
        else:
            break
        if cand_loss == loss and t < 1.0:  # flat to rounding: Armijo can't rank t
            cand = weights + direction
            cand_loss, cand_probs = _loss_and_probs(xb, y, cand)
        weights, loss, probs = cand, cand_loss, cand_probs
        steps += 1
    return SoftmaxModel(weights=weights, iterations=steps, final_loss=loss)


def predict_probs(model: SoftmaxModel, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Softmax probabilities for each row of x, which must be finite."""
    _check_type("model", model, SoftmaxModel)
    x = _check_array("x", x)
    if x.ndim != 2 or x.shape[1] + 1 != model.weights.shape[0]:
        raise DimensionMismatch(
            f"x has {x.shape[1] if x.ndim == 2 else '?'} features, "
            f"model expects {model.weights.shape[0] - 1}"
        )
    logits = np.hstack([x, np.ones((x.shape[0], 1))]) @ model.weights
    logits -= _row_max(logits)
    expl = np.exp(logits)
    return expl / _row_sum(expl)[:, None]
