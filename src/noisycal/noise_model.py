"""Label-contamination models: construction, inversion and sampling.

A contamination model is a column-stochastic transition matrix ``T`` with
``T[k, l] = P(noisy label = k | true label = l)``.  The three parametric
families (uniform randomized response, block randomized response, two-level
randomized response) share one block form,

    T = (1 - eps) I + within B + across (J - B),

where B is the block-diagonal matrix of ones over blocks of m labels (m = K,
K/b and K/2) and J the all-ones matrix.  T has the eigenvalues l1 = 1 - eps
on contrasts within a block, l2 = l1 + m (within - across) on contrasts
between blocks and 1 on constants, so its closed-form inverse is

    W = I/l1 + (1/l2 - 1/l1) B/m + (1 - 1/l2) J/K,

which ``build_transition`` assembles.  An explicit matrix, such as one read
from a file, goes through ``transition_from_matrix`` and is inverted
numerically.

Labels are 0-based everywhere inside the library; the file and CLI layers
translate from the 1-based convention used in data files.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import (
    InvalidSpec,
    SingularTransition,
    _check_int,
    _check_label_vector,
    _check_real,
    _check_square,
    _check_type,
)

__all__ = [
    "Family",
    "ContaminationSpec",
    "TransitionMatrix",
    "build_transition",
    "closed_form_inverse",
    "transition_from_matrix",
    "sample_noisy_labels",
]


class Family(str, Enum):
    """Supported contamination families."""

    RANDOMIZED_RESPONSE = "rr"
    BLOCK_RR = "block_rr"
    TWO_LEVEL_RR = "two_level_rr"


@dataclass(frozen=True)
class ContaminationSpec:
    """Parameters identifying a contamination model.

    Parameters
    ----------
    family : Family
        Which parametric family.
    k : int
        Number of classes.
    eps : float
        Noise strength in [0, 1).
    nu : float
        Two-level deviation in [0, 1]; used by TWO_LEVEL_RR only.
    b : int, optional
        Number of blocks; used by BLOCK_RR only, must divide ``k``.
    """

    family: Family
    k: int
    eps: float = 0.0
    nu: float = 0.0
    b: int | None = None

    def __post_init__(self) -> None:
        try:
            family = Family(self.family)
        except ValueError:
            raise InvalidSpec(
                f"family must be one of {[f.value for f in Family]}, "
                f"got {self.family!r}"
            ) from None
        object.__setattr__(self, "family", family)
        _check_int("k", self.k, 1)
        _check_real("eps", self.eps, 0.0, 1.0, "[)")
        _check_real("nu", self.nu, 0.0, 1.0)
        if family is Family.BLOCK_RR:
            _check_int("b", self.b, 1)
            if self.k % self.b != 0:
                raise InvalidSpec(
                    f"block count b={self.b} must be a positive divisor of k={self.k}"
                )
        if family is Family.TWO_LEVEL_RR:
            if self.k % 2 != 0:
                raise InvalidSpec(f"two-level model needs an even k, got {self.k}")


@dataclass(frozen=True)
class TransitionMatrix:
    """A validated transition matrix together with its inverse.

    Fields
    ------
    T : ndarray
        Column-stochastic K x K matrix, ``T[k, l] = P(noisy=k | true=l)``.
    W : ndarray
        Inverse of ``T``.
    """

    T: NDArray[np.float64]
    W: NDArray[np.float64]

    def __post_init__(self) -> None:
        t = _check_square("T", self.T).copy()
        w = _check_square("W", self.W, t.shape[0]).copy()
        if np.any(t < 0.0):
            raise InvalidSpec("T entries must be nonnegative")
        colsums = t.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-10:
            raise InvalidSpec(
                "T columns must sum to 1 within 1e-10; "
                f"worst deviation {np.max(np.abs(colsums - 1.0)):.3e}"
            )
        resid = np.max(np.abs(w @ t - np.eye(t.shape[0])))
        if resid > 1e-10:
            raise SingularTransition(
                f"inverse residual ||W T - I|| = {resid:.3e} exceeds 1e-10; "
                "T is too ill-conditioned to certify"
            )
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "W", w)

    @property
    def k(self) -> int:
        return self.T.shape[0]

    @property
    def condition_number(self) -> float:
        """2-norm condition number of T (equal to that of W)."""
        return float(np.linalg.cond(self.T))


def _as_w(w, k: int | None = None) -> NDArray[np.float64]:
    """The W of a TransitionMatrix or a raw array, checked finite and K x K."""
    return _check_square("W", w.W if isinstance(w, TransitionMatrix) else w, k)


def _family_blocks(spec: ContaminationSpec) -> tuple[int, float, float]:
    """(m, within, across) of the family's block form (module docstring).

    m = K for RR, whose one block leaves ``across`` unused, K/b for block RR
    and K/2 for the two-level model.
    """
    _check_type("spec", spec, ContaminationSpec)
    k, eps = spec.k, spec.eps
    if spec.family is Family.TWO_LEVEL_RR:
        return k // 2, (eps / k) * (1.0 + spec.nu), (eps / k) * (1.0 - spec.nu)
    m = k // spec.b if spec.family is Family.BLOCK_RR else k
    return m, eps / m, 0.0


def _block_matrix(
    k: int, m: int, diag: float, within: float, across: float
) -> NDArray[np.float64]:
    """diag I + within B + across (J - B) for K labels in blocks of m."""
    out = np.full((k, k), across)
    for start in range(0, k, m):
        out[start : start + m, start : start + m] = within
    return out + diag * np.eye(k)


def _family_matrix(spec: ContaminationSpec) -> NDArray[np.float64]:
    m, within, across = _family_blocks(spec)
    return _block_matrix(spec.k, m, 1.0 - spec.eps, within, across)


def _inverse_blocks(spec: ContaminationSpec) -> tuple[int, float, float, float]:
    """(m, diag, within, across) of W = T^{-1} from T's eigenvalues l1, l2."""
    m, within, across = _family_blocks(spec)
    lam1 = 1.0 - spec.eps
    inv1, inv2 = 1.0 / lam1, 1.0 / (lam1 + m * (within - across))
    outer = (1.0 - inv2) / spec.k
    return m, inv1, (inv2 - inv1) / m + outer, outer


def _inverse(
    a: NDArray[np.float64], error: type[Exception], name: str
) -> NDArray[np.float64]:
    """Dense inverse of a finite square matrix, refused when near-singular.

    Raises ``error`` naming ``name`` unless the 2-norm condition number of
    ``a``, the measure :attr:`TransitionMatrix.condition_number` reports, is
    at most 1e12.
    """
    cond = float(np.linalg.cond(a))
    if not cond <= 1e12:
        raise error(
            f"{name} is numerically singular: condition number {cond:.3e} exceeds 1e12"
        )
    return np.linalg.inv(a)


def build_transition(spec: ContaminationSpec) -> TransitionMatrix:
    """Build T from a spec and assemble W from the analytic inverse of its block form.

    One formula serves every family (see the module docstring), so W has
    exactly the block form; W = I exactly at eps = 0.
    """
    return TransitionMatrix(
        T=_family_matrix(spec), W=_block_matrix(spec.k, *_inverse_blocks(spec))
    )


# the same constructor under its second public name
closed_form_inverse = build_transition


def transition_from_matrix(t: NDArray[np.float64]) -> TransitionMatrix:
    """Wrap an explicit matrix, inverting it numerically."""
    # checked before the condition number, which needs a finite square matrix
    t = _check_square("T", t)
    return TransitionMatrix(T=t, W=_inverse(t, SingularTransition, "transition matrix"))


def sample_noisy_labels(
    true_labels: NDArray[np.int64],
    tm: TransitionMatrix,
    seed: int,
) -> NDArray[np.int64]:
    """Draw one noisy label per true label from the columns of T.

    Each draw uses inverse-CDF sampling on a single uniform variate, so the
    output is deterministic given the seed, and T = I reproduces the input
    exactly (the uniform lies in [0, 1), so the first CDF step at 1 is never
    crossed).  The K x K column CDFs are computed once and searched per true
    class, so memory stays O(K^2 + n).
    """
    _check_int("seed", seed, 0)
    _check_type("tm", tm, TransitionMatrix)
    k = tm.k
    y = _check_label_vector("true_labels", true_labels, k)
    rng = np.random.default_rng(seed)
    u = rng.random(y.size)
    cdf = np.cumsum(tm.T, axis=0)
    out = np.empty(y.size, dtype=np.int64)
    for label in range(k):
        mask = y == label
        # the count of CDF steps <= u, as the CDF is nondecreasing
        out[mask] = np.searchsorted(cdf[:, label], u[mask], side="right")
    return np.minimum(out, k - 1)
