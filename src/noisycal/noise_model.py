"""Label-contamination models: construction, inversion and sampling.

A contamination model is a column-stochastic transition matrix ``T`` with
``T[k, l] = P(noisy label = k | true label = l)``.  The three parametric
families (uniform randomized response, block randomized response, two-level
randomized response) share one block form,

    T = (1 - eps) I + within B + across (J - B),

where B[i, j] = 1 when labels i and j share a block of m labels (m = K, K/b
and K/2) and J is the all-ones matrix.  T has the eigenvalues l1 = 1 - eps
on contrasts within a block, l2 = l1 + m (within - across) on contrasts
between blocks and 1 on constants, so its closed-form inverse is

    W = I/l1 + (1/l2 - 1/l1) B/m + (1 - 1/l2) J/K.

Renaming the classes changes nothing in this, so the blocks need not be runs
of contiguous labels.  A channel is built from T alone: ``TransitionMatrix(T)``
reads T's block form once, to working precision under any labelling
(``_exact_block_form``), and derives both W and T's condition number from
that reading.  A T that has the block form gets this W from its own entries
(``_block_inverse``) and its condition number from the eigenvalues above;
every other T is inverted numerically and takes an SVD.
``build_transition`` hands a family's T to that constructor, and
``_block_form`` reads W's block form the same way, within the looser
tolerance that the rounding of a computed W needs.

One rule certifies a channel: its 2-norm condition number must be at most
1e12 (``_conditioned``).  A certified T is nonsingular, so its W exists.

Labels are 0-based everywhere inside the library; the file and CLI layers
translate from the 1-based convention used in data files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A certified transition matrix T together with its inverse W.

    Built from T alone.  T is refused past a condition number of 1e12, the
    one certification rule (see the module docstring); W and the condition
    number are derived from one reading of T's block form.

    Fields
    ------
    T : ndarray
        Column-stochastic K x K matrix, ``T[k, l] = P(noisy=k | true=l)``.
    W : ndarray
        Inverse of ``T``: the closed form when T has the block form, an LU
        inverse otherwise.
    condition_number : float
        2-norm condition number of T (equal to that of W), at most 1e12.
    """

    T: NDArray[np.float64]
    W: NDArray[np.float64] = field(init=False)
    condition_number: float = field(init=False)

    def __post_init__(self) -> None:
        t = _check_square("T", self.T).copy()
        if np.any(t < 0.0):
            raise InvalidSpec("T entries must be nonnegative")
        colsums = t.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-10:
            raise InvalidSpec(
                "T columns must sum to 1 within 1e-10; "
                f"worst deviation {np.max(np.abs(colsums - 1.0)):.3e}"
            )
        form, cond = _conditioned(t, SingularTransition, "transition matrix")
        w = np.linalg.inv(t) if form is None else _block_matrix(*_block_inverse(*form))
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "condition_number", cond)

    @property
    def k(self) -> int:
        return self.T.shape[0]


def _as_w(w, k: int | None = None) -> NDArray[np.float64]:
    """The W of a TransitionMatrix or a raw array, checked finite and K x K."""
    return _check_square("W", w.W if isinstance(w, TransitionMatrix) else w, k)


# the arguments (blocks, diag, within, across) of _block_matrix
_BlockForm = tuple[NDArray[np.int64], float, float, float]


def _family_blocks(spec: ContaminationSpec) -> _BlockForm:
    """(blocks, 1 - eps, within, across): T's :func:`_block_matrix` arguments.

    ``blocks`` maps each label to its block of m labels: m = K for RR, whose
    one block leaves ``across`` unused, K/b for block RR and K/2 for the
    two-level model.
    """
    _check_type("spec", spec, ContaminationSpec)
    k, eps = spec.k, spec.eps
    if spec.family is Family.TWO_LEVEL_RR:
        m = k // 2
        within, across = (eps / k) * (1.0 + spec.nu), (eps / k) * (1.0 - spec.nu)
    else:
        m = k // spec.b if spec.family is Family.BLOCK_RR else k
        within, across = eps / m, 0.0
    return np.arange(k) // m, 1.0 - eps, within, across


def _block_matrix(
    blocks: NDArray[np.int64], diag: float, within: float, across: float
) -> NDArray[np.float64]:
    """diag I + within B + across (J - B), B[i, j] = 1 when labels i and j
    share a block of ``blocks``."""
    same = blocks[:, None] == blocks[None, :]
    return np.where(same, within, across) + diag * np.eye(blocks.size)


# a matrix has the block form when every entry lies within this multiple of
# its max|entry| of the form read off its first row; a computed W carries
# the rounding of its inverse
_BLOCK_RTOL = 1e-12

# the unit roundoff of float64
_U = 2.0**-53


def _block_form(a: NDArray[np.float64], rtol: float = _BLOCK_RTOL) -> _BlockForm | None:
    """:func:`_block_matrix`'s arguments ``(blocks, diag, within, across)``
    when ``a`` has that form under any labelling, so that
    ``_block_matrix(*form)`` rebuilds it.

    ``blocks`` maps each label to its block, numbered by first label, all of
    one size m.  The within value is one of the first two distinct
    off-diagonal values of row 0 (the other one's labels cannot also form
    equal blocks), and across is the other value: across = within for one
    block (m = K, one distinct value), and both are 0 at K = 1.  Label i's
    block is i's first label whose entry in row i is the within value, and
    diag is a[0, 0] less that value.  None unless the blocks have one size
    and every entry lies within ``rtol`` max|a| of that form.  O(K^2) work;
    reads T and W alike.
    """
    tol = rtol * float(np.abs(a).max())
    row = a[0, 1:]
    # the first two distinct off-diagonal values of row 0; either may be
    # the within value
    values = row[:1].tolist() + row[np.abs(row - row[:1]) > tol][:1].tolist()
    pairs = [(values[i], values[-1 - i]) for i in range(len(values))]
    for within, across in pairs or [(0.0, 0.0)]:
        same = np.abs(a - within) <= tol
        np.fill_diagonal(same, True)
        blocks = np.unique(same.argmax(axis=1), return_inverse=True)[1]
        sizes = np.bincount(blocks)
        form = _block_matrix(blocks, 0.0, within, across)
        np.fill_diagonal(form, a[0, 0])
        if np.all(sizes == sizes[0]) and np.all(np.abs(a - form) <= tol):
            return blocks, float(a[0, 0]) - within, within, across
    return None


def _exact_block_form(a: NDArray[np.float64]) -> _BlockForm | None:
    """:func:`_block_form` to working precision: every entry within K u max|a|.

    That is the backward error gamma_K allows a numerical inverse, so the
    closed-form W of this form inverts T as closely as an LU inverse would,
    and its eigenvalues give T's condition number as closely as an SVD.
    """
    return _block_form(a, a.shape[0] * _U)


def _block_eigenvalues(
    blocks: NDArray[np.int64], diag: float, within: float, across: float
) -> tuple[int, float, float, float]:
    """(m, l1, l2, l0) of :func:`_block_matrix` ``(blocks, diag, within, across)``.

    m is the block size, l1 = diag the eigenvalue on contrasts within a
    block, l2 = l1 + m (within - across) on contrasts between blocks and
    l0 = l2 + K across on constants (1 for a column-stochastic T).
    """
    m = int(np.count_nonzero(blocks == 0))
    l2 = diag + m * (within - across)
    return m, diag, l2, l2 + blocks.size * across


def _condition_number(a: NDArray[np.float64], form: _BlockForm | None) -> float:
    """2-norm condition number of a finite square matrix ``a`` whose
    :func:`_exact_block_form` is ``form``.

    A matrix of block form is symmetric, so its condition number is the
    ratio of the largest to the smallest modulus of the eigenvalues that
    occur (:func:`_block_eigenvalues`): l1 when m > 1, l2 when K > m, and
    l0; inf when one of them is 0.  Any other matrix (``form`` None) takes
    an SVD.
    """
    if form is None:
        return float(np.linalg.cond(a))
    m, l1, l2, l0 = _block_eigenvalues(*form)
    moduli = [abs(l0)] + [abs(l1)] * (m > 1) + [abs(l2)] * (a.shape[0] > m)
    low = min(moduli)
    return max(moduli) / low if low > 0.0 else math.inf


def _conditioned(
    a: NDArray[np.float64], error: type[Exception], name: str
) -> tuple[_BlockForm | None, float]:
    """``(form, cond)``: the :func:`_exact_block_form` of ``a``, a finite
    square matrix, and its condition number, both from one reading of ``a``.

    The one certification rule: raises ``error`` naming ``name`` unless the
    2-norm condition number (:func:`_condition_number`) is at most 1e12.
    """
    form = _exact_block_form(a)
    cond = _condition_number(a, form)
    if not cond <= 1e12:
        raise error(
            f"{name} is numerically singular: condition number {cond:.3e} exceeds 1e12"
        )
    return form, cond


def _block_inverse(
    blocks: NDArray[np.int64], diag: float, within: float, across: float
) -> _BlockForm:
    """W's :func:`_block_matrix` arguments from those of a column-stochastic T,
    whose eigenvalues l1 and l2 (:func:`_block_eigenvalues`) are not 0, as
    for every certified T."""
    m, l1, l2, _ = _block_eigenvalues(blocks, diag, within, across)
    inv1, inv2 = 1.0 / l1, 1.0 / l2
    outer = (1.0 - inv2) / blocks.size
    return blocks, inv1, (inv2 - inv1) / m + outer, outer


def build_transition(spec: ContaminationSpec) -> TransitionMatrix:
    """A family's T from a spec, as a :class:`TransitionMatrix`.

    T has the block form, so W is its closed-form inverse; W = I exactly at
    eps = 0.
    """
    return TransitionMatrix(_block_matrix(*_family_blocks(spec)))


# the same constructor under its second public name
closed_form_inverse = build_transition


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
