"""Calibration correction factors delta(n) and related diagnostics.

Three routes produce a correction:

* ``c_of_n``: exact c(n) = E[max_i (i/n - U_(i))], the mean of the
  one-sided Kolmogorov-Smirnov statistic, in closed form as Q(n) / (2n)
  with Ramanujan's Q-function; bounded above by sqrt(pi / (2 n)).
* ``delta_fs``: finite-sample bound c(n) (beta_0 + mean_k beta_k)
  + B(K, n, beta)/sqrt(n), minimized exactly over beta one branch of the min
  inside B at a time.  When W has the block form d I + s B + o (J - B)
  over contiguous blocks of m labels, as every parametric family's inverse
  does however it was given, both branches are in closed form.  For any
  other W the chaining branch is in closed form (O(K^2)) and the Massart
  branch a sparse linear program solved by interior point (O(K^2)
  memory), the package's one use of SciPy.
* ``delta_asy``: asymptotic route; estimates the plug-in covariance of the
  limiting Gaussian process once, on the finest grid of a halving ladder
  (``estimate_covariance``), factors it, simulates its absolute supremum on
  every level from one stream of m float32 draws, extrapolates the two
  finest levels by one Richardson pass, and rescales by 1/sqrt(n), in
  O(nK + N^2) working memory, independent of m.  The default ladder is
  h = 1/25, 1/50, 1/100 (finest grid N = 101 points): the sampler costs
  O(N^2) per draw, while the extrapolate barely depends on N.

``delta_star_star_bound`` and ``upper_bound_diagnostics`` compute the purely
diagnostic quantities (the bound on the expected absolute supremum of the
centered process, d(n), phi(n), and the inflation-floor threshold); the
bound takes the same closed forms, and for any other W two LPs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .empirical import CalibrationSet, _f_weights, _mean_f
from .errors import (
    CholeskyFailure,
    InvalidSpec,
    LadderMismatch,
    SingularM,
    SolverFailure,
    _check_alpha,
    _check_array,
    _check_int,
    _check_real,
    _check_square,
    _check_type,
)
from .noise_model import (
    ContaminationSpec,
    TransitionMatrix,
    _as_w,
    _inverse,
    _inverse_blocks,
    build_transition,
)

__all__ = [
    "CorrectionMethod",
    "BetaVector",
    "CorrectionReport",
    "c_of_n",
    "cn_envelope",
    "omega_matrix",
    "b_term",
    "delta_fs",
    "delta_fs_special",
    "estimate_covariance",
    "delta_asy",
    "delta_star_star_bound",
    "upper_bound_diagnostics",
]


class CorrectionMethod(str, Enum):
    FINITE_SAMPLE = "finite_sample"
    ASYMPTOTIC = "asymptotic"
    CN_ONLY = "cn_only"


@dataclass(frozen=True)
class BetaVector:
    """The K+1 coefficients parameterizing the decomposition W = Wbar + Omega."""

    beta0: float
    betas: NDArray[np.float64]

    def __post_init__(self) -> None:
        _check_real("beta0", self.beta0)
        b = _check_array("betas", self.betas, ndim=1).copy()
        b.setflags(write=False)
        object.__setattr__(self, "betas", b)


@dataclass(frozen=True)
class CorrectionReport:
    """A correction value plus its provenance.

    ``value`` is delta(n) itself.  For the finite-sample route, ``beta_star``
    and ``branch`` record the attaining coefficients and which branch of the
    bound was active, ``branch_values`` the bound with each branch alone
    (``{"massart": ..., "chaining": ...}``, chaining None for K = 1; from
    ``delta_fs`` each at its own branch's minimizer, so ``value`` is the
    smaller), and ``c_n`` the exact c(n) it used; for the asymptotic
    route, ``mc_diagnostics`` records the grid ladder, the per-level
    Monte-Carlo estimates with standard errors, the extrapolated (unscaled)
    supremum and its standard error, the covariance condition number, and the
    Cholesky jitter multiplier of the finest-grid factorization (None for an
    all-zero covariance, which is not factored).  ``condition_number``
    optionally carries the transition-matrix conditioning for audit.
    """

    method: CorrectionMethod
    value: float
    beta_star: BetaVector | None = None
    branch: str | None = None
    mc_diagnostics: dict | None = None
    condition_number: float | None = None
    c_n: float | None = None
    branch_values: dict | None = None

    def __post_init__(self) -> None:
        _check_real("value", self.value, 0.0, math.inf, "[)")

    def to_dict(self) -> dict:
        """The report as plain JSON values, one key per field."""
        return _jsonable(self)


def _jsonable(obj):
    """obj as plain JSON values; a non-finite float becomes None (JSON null).

    A dataclass becomes an object of its fields in declaration order and an
    enum its value, so a field added to a record reaches every writer.
    """
    if isinstance(obj, Enum):
        return _jsonable(obj.value)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# c(n)
# ---------------------------------------------------------------------------


def cn_envelope(n: int) -> float:
    """Analytic envelope sqrt(pi / (2 n)) >= c(n), used by the delta** bound."""
    _check_int("n", n, 1)
    return math.sqrt(math.pi / (2.0 * n))


def c_of_n(n: int) -> float:
    """Exact c(n) = E[max_i (i/n - U_(i))] for n uniform order statistics.

    The maximum is the one-sided Kolmogorov-Smirnov statistic D_n^+, whose
    mean is Q(n) / (2n) with Ramanujan's Q-function
    Q(n) = sum_{k>=1} prod_{j<k} (1 - j/n) (Knuth, TAOCP vol. 1, 1.2.11.3).
    The terms fall like exp(-k^2 / 2n), so the sum stops at k = sqrt(80 n),
    past which they are below e^-40: O(sqrt(n)) time and memory.
    """
    _check_int("n", n, 1)
    n = int(n)
    kmax = min(n, math.isqrt(80 * n) + 1)
    terms = np.cumprod(1.0 - np.arange(1, kmax) / n)
    return float((1.0 + terms.sum()) / (2.0 * n))


# ---------------------------------------------------------------------------
# finite-sample bound
# ---------------------------------------------------------------------------


def omega_matrix(w, beta: BetaVector) -> NDArray[np.float64]:
    """Omega = W - Wbar with Wbar[k, l] = beta0 * 1[k = l] + beta_k / K.

    W must be a finite K x K matrix (InvalidSpec otherwise).
    """
    w = _as_w(w)
    _check_type("beta", beta, BetaVector)
    k = w.shape[0]
    if beta.betas.shape[0] != k:
        raise InvalidSpec(f"beta has {beta.betas.shape[0]} entries, expected {k}")
    return w - beta.beta0 * np.eye(k) - beta.betas[:, None] / k


def _checked_w(n: int, k: int, w) -> NDArray[np.float64]:
    """W as a finite K x K float array, with n and k checked.

    The one check of the public finite-sample entry points, so the private
    kernels read K from ``w.shape[0]``.
    """
    _check_int("n", n, 1)
    _check_int("k", k, 1)
    return _as_w(w, k)


def _branch_terms(n: int, beta: BetaVector, w) -> dict[str, float | None]:
    """The two branches inside the min of B(K, n, beta), before the factor 2.

    ``massart`` is max_l sum_k |Omega[k, l]| * sqrt(log(K n + 1)) and
    ``chaining`` is 24 max|Omega| (2 log K + 1)/(2 log K - 1) sqrt(2 K log K);
    the chaining branch needs 2 log K > 1, so it is None for K = 1.
    """
    abs_omega = np.abs(omega_matrix(w, beta))
    k = abs_omega.shape[0]
    massart = float(abs_omega.sum(axis=0).max()) * math.sqrt(math.log(k * n + 1.0))
    chaining = None
    if k >= 2:
        chaining = float(abs_omega.max()) * _chaining_constant(k)
    return {"massart": massart, "chaining": chaining}


def _chaining_constant(k: int) -> float:
    """24 (2 log K + 1)/(2 log K - 1) sqrt(2 K log K), for K >= 2."""
    log_k = math.log(k)
    return 24.0 * ((2.0 * log_k + 1.0) / (2.0 * log_k - 1.0)) * math.sqrt(2.0 * k * log_k)


def b_term(k: int, n: int, beta: BetaVector, w) -> tuple[float, str]:
    """The deviation term B(K, n, beta) and which branch attained it.

    B = 2 min{ max_l sum_k |Omega[k, l]| * sqrt(log(K n + 1)),
               24 max|Omega| (2 log K + 1)/(2 log K - 1) sqrt(2 K log K) }.

    The chaining branch needs 2 log K > 1; for K = 1 it is undefined and the
    Massart branch is used alone.  W must be a finite K x K matrix.
    """
    terms = _branch_terms(n, beta, _checked_w(n, k, w))
    chaining = terms["chaining"]
    if chaining is None or terms["massart"] <= chaining:
        return 2.0 * terms["massart"], "massart"
    return 2.0 * chaining, "chaining"


def _branch_lp(
    w: NDArray[np.float64],
    weight: float,
    z_coef: float,
    per_column: bool,
    abs_objective: bool,
) -> BetaVector:
    """Exact LP for one branch of the piecewise-linear bound, sparse, by IPM.

    Minimizes weight * (beta0 + mean_k beta_k) + z_coef * z, with the betas
    replaced by their absolute values when ``abs_objective``.  Variables:
    beta0, beta_1..K, [u0, u_1..K if abs_objective], [A_kl if per_column], z.
    The Omega entries are affine in beta, so |Omega| and the column-sum
    (``per_column``, the Massart branch) or entrywise (the chaining branch)
    max reduce to linear constraints.  ``A_ub`` is built as a sparse matrix
    (at most 3 nonzeros per row outside the K column-sum rows, so O(K^2)
    memory) and solved by HiGHS's interior-point method with crossover,
    which scales in K where the default simplex does not.  SciPy is imported
    here, not at module level, so the routes without an LP never load it.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    k = w.shape[0]
    nb = 1 + k
    nu = nb if abs_objective else 0
    na = k * k if per_column else 0
    nvars = nb + nu + na + 1
    i_a = nb + nu
    i_z = nvars - 1

    # rows 2c and 2c + 1 encode +Omega[kk, ll] <= aux and -Omega[kk, ll] <= aux
    # for the cell c = kk * K + ll, where
    # Omega[kk, ll] = W[kk, ll] - beta0 * 1[kk = ll] - beta_kk / K
    cell = np.repeat(np.arange(k * k), 2)
    kk, ll = np.divmod(cell, k)
    sign = np.tile([1.0, -1.0], k * k)
    row = np.arange(2 * k * k)
    aux = (i_a + cell) if per_column else np.full(row.shape, i_z)
    on_diag = kk == ll
    rows = [row, row, row[on_diag]]
    cols = [1 + kk, aux, np.zeros(int(on_diag.sum()), dtype=np.intp)]
    vals = [-sign / k, -np.ones(row.shape), -sign[on_diag]]
    rhs = [-sign * w.ravel()[cell]]
    nrows = row.shape[0]
    if per_column:
        # sum_kk A[kk, ll] <= z for every column ll
        a_cell = np.arange(k * k)
        rows += [nrows + a_cell % k, nrows + np.arange(k)]
        cols += [i_a + a_cell, np.full(k, i_z)]
        vals += [np.ones(k * k), -np.ones(k)]
        rhs.append(np.zeros(k))
        nrows += k
    if abs_objective:
        # +-beta_j <= u_j
        j = np.repeat(np.arange(nb), 2)
        row = nrows + np.arange(2 * nb)
        rows += [row, row]
        cols += [j, nb + j]
        vals += [np.tile([1.0, -1.0], nb), -np.ones(2 * nb)]
        rhs.append(np.zeros(2 * nb))
        nrows += 2 * nb
    a_ub = sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrows, nvars),
    )

    cost = np.zeros(nvars)
    first = nb if abs_objective else 0
    cost[first] = weight
    cost[first + 1 : first + nb] = weight / k
    cost[i_z] = z_coef

    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.concatenate(rhs),
        bounds=(None, None),
        method="highs-ipm",
    )
    if res.status != 0 or res.x is None:
        raise SolverFailure(f"LP did not reach an optimum: {res.message}")
    return BetaVector(beta0=float(res.x[0]), betas=res.x[1:nb].copy())


def _check_bounded(k: int, weight: float, z_coef: float, per_column: bool) -> None:
    """Raise SolverFailure when a signed branch is unbounded below: the
    Massart branch (``per_column``) when z_coef < weight, the chaining
    branch when z_coef < K weight."""
    name, floor, what = ("Massart", weight, "the weight")
    if not per_column:
        name, floor, what = "chaining", k * weight, "K * weight ="
    if not floor <= z_coef:
        raise SolverFailure(
            f"the {name} branch is unbounded below: its z coefficient {z_coef} "
            f"is below {what} {floor}"
        )


def _chaining_minimizer(
    w: NDArray[np.float64], weight: float, z_coef: float
) -> BetaVector:
    """Exact minimizer of the signed chaining branch, in closed form.

    Minimizes weight * (beta0 + mean_k beta_k) + z_coef * max|Omega| for
    K >= 2.  With b_k = beta_k / K, row k needs |W'[k, l] - b_k| <= z for
    W' = W - beta0 I, and the smallest sum of b_k is b_k = max_l W'[k, l] - z.
    That leaves (z_coef - K weight) z to minimize: the problem is unbounded
    below when z_coef < K weight, and otherwise z is half the largest row
    range.  With a_k = W[k, k], M_k and m_k the max and min of W[k, l] over
    l != k, C = max_k(M_k - m_k), A = max_k(a_k - m_k), B = min_k(a_k - M_k):

        z(beta0)  = max(C, A - beta0, beta0 - B) / 2,
        b_k       = max(a_k - beta0, M_k) - z,

    and the objective is convex piecewise linear in beta0 with kinks among
    {a_k - M_k} and {A - C, B + C, (A + B)/2}; the minimum is the best kink.
    O(K^2) work, no solver.
    """
    k = w.shape[0]
    _check_bounded(k, weight, z_coef, per_column=False)
    slack = z_coef - k * weight
    diag = np.diag(w)
    off = w.copy()
    np.fill_diagonal(off, -np.inf)
    big = off.max(axis=1)
    np.fill_diagonal(off, np.inf)
    small = off.min(axis=1)
    c_range = float(np.max(big - small))
    a_top = float(np.max(diag - small))
    b_bot = float(np.min(diag - big))
    beta0 = np.concatenate(
        [diag - big, [a_top - c_range, b_bot + c_range, 0.5 * (a_top + b_bot)]]
    )
    tops = np.maximum(diag[None, :] - beta0[:, None], big[None, :])
    z = 0.5 * np.maximum(c_range, np.maximum(a_top - beta0, beta0 - b_bot))
    objective = weight * (beta0 + tops.sum(axis=1)) + slack * z
    best = int(np.argmin(objective))
    return BetaVector(beta0=float(beta0[best]), betas=k * (tops[best] - z[best]))


def _fs_values(
    n: int, w, weight: float, beta: BetaVector, absolute: bool = False
) -> dict[str, float | None]:
    """The objective at beta with each branch of B alone (None: undefined).

    weight * (beta0 + mean_k beta_k) + 2 branch / sqrt(n), with absolute
    values on the betas when ``absolute``; the bound is the smaller value.
    """
    if absolute:
        linear = weight * (abs(beta.beta0) + float(np.mean(np.abs(beta.betas))))
    else:
        linear = weight * (beta.beta0 + float(np.mean(beta.betas)))
    scale = 2.0 / math.sqrt(n)
    return {
        name: None if term is None else linear + scale * term
        for name, term in _branch_terms(n, beta, w).items()
    }


def _smallest(values: dict[str, float | None]) -> tuple[float, str]:
    """The smallest defined value and its key; the first key wins a tie."""
    defined = [(v, name) for name, v in values.items() if v is not None]
    return min(defined, key=lambda pair: pair[0])


# W has the block form when every entry lies within this multiple of max|W|
# of the form read off its first row
_BLOCK_RTOL = 1e-12


def _block_size(w: NDArray[np.float64]) -> int | None:
    """m when W = d I + s B + o (J - B) over contiguous blocks of m labels.

    B is the block-diagonal matrix of ones over blocks of m labels (the
    block form of :mod:`noisycal.noise_model`), J the all-ones matrix.  The
    form is read off W's first row: W[0, 0] on the diagonal, s = W[0, 1],
    m the length of the row's leading run of entries equal to s (K when the
    run fills the row) and o = W[0, m].  W has that form when m divides K
    and every entry lies within ``_BLOCK_RTOL`` max|W| of it; otherwise the
    result is None.  A W whose s and o agree, such as randomized response's,
    is one block (m = K).  O(K^2) work.
    """
    k = w.shape[0]
    if k == 1:
        return 1
    tol = _BLOCK_RTOL * float(np.abs(w).max())
    off_run = np.abs(w[0, 1:] - w[0, 1]) > tol
    m = 1 + int(np.argmax(off_run)) if off_run.any() else k
    if k % m:
        return None
    block = np.arange(k) // m
    across = w[0, m] if m < k else 0.0
    form = np.where(block[:, None] == block[None, :], w[0, 1], across)
    np.fill_diagonal(form, w[0, 0])
    return m if np.all(np.abs(w - form) <= tol) else None


def _block_minimizer(
    m: int, w, weight: float, z_coef: float, per_column: bool, abs_objective: bool
) -> BetaVector:
    """The problem of :func:`_branch_lp`, solved exactly for a W of block form.

    W = d I + s B + o (J - B) over blocks of m labels (:func:`_block_size`)
    is invariant under a permutation group transitive on the classes, and so
    is each convex problem, so a minimizer averaged over the group has every
    beta_k = K x.  A column of Omega then holds d - beta0 - x once, s - x
    (m - 1) times and o - x (K - m) times; Massart sums their absolute
    values, chaining takes the largest.  A minimizer is the best vertex of
    the lines where a piece changes: beta0 = 0, x = 0, beta0 + x = d,
    x = (s + o)/2 and, for v in {s, o}, x = v, beta0 = d - v and
    beta0 + 2x = d + v.  O(K) work, no solver.
    """
    k = w.shape[0]
    if not abs_objective:
        _check_bounded(k, weight, z_coef, per_column)
    # o = s for one block (m = K), s = d for K = 1: copies change nothing
    d = w[0, 0]
    s = w[0, 1] if k > 1 else d
    o = w[0, m] if m < k else s
    lines = [(1, 0, 0), (0, 1, 0), (1, 1, d), (0, 1, (s + o) / 2)]
    for v in (s, o):
        lines += [(0, 1, v), (1, 0, d - v), (1, 2, d + v)]
    # the vertices: a beta0 + b x = c on both of two crossing lines; + 0.0
    # turns a -0.0 of Cramer's rule into 0.0
    a, b, c = np.array(lines, dtype=np.float64).T
    i, j = np.triu_indices(a.size, 1)
    det = a[i] * b[j] - a[j] * b[i]
    cross = det != 0.0
    i, j, det = i[cross], j[cross], det[cross]
    beta0 = (c[i] * b[j] - c[j] * b[i]) / det + 0.0
    x = (a[i] * c[j] - a[j] * c[i]) / det + 0.0
    dev = np.abs([d - beta0 - x, s - x, o - x])
    branch = np.array([1, m - 1, k - m]) @ dev if per_column else dev.max(axis=0)
    linear = np.abs(beta0) + k * np.abs(x) if abs_objective else beta0 + k * x
    best = int(np.argmin(weight * linear + z_coef * branch))
    return BetaVector(beta0=float(beta0[best]), betas=np.full(k, k * x[best]))


def _branch_minimizers(
    n: int, w: NDArray[np.float64], weight: float, abs_objective: bool
) -> dict[str, BetaVector]:
    """Minimizers of the Massart branch and, for K >= 2, of the chaining branch.

    One problem per branch of the min inside B; the z-coefficients include
    the 2/sqrt(n) scale of B.  A W of block form (:func:`_block_size`)
    takes :func:`_block_minimizer` for both.  Any other W takes
    :func:`_chaining_minimizer` for the signed chaining branch and the
    sparse LP :func:`_branch_lp` for the rest.  The chaining branch runs
    first, so an unbounded one fails before any LP is built.  w is a finite
    K x K array (:func:`_checked_w`).
    """
    k = w.shape[0]
    scale = 2.0 / math.sqrt(n)
    m = _block_size(w)

    def solve(z_coef: float, per_column: bool) -> BetaVector:
        if m is not None:
            return _block_minimizer(m, w, weight, z_coef, per_column, abs_objective)
        if per_column or abs_objective:
            return _branch_lp(w, weight, z_coef, per_column, abs_objective)
        return _chaining_minimizer(w, weight, z_coef)

    chaining = {}
    if k >= 2:
        chaining["chaining"] = solve(scale * _chaining_constant(k), per_column=False)
    massart = solve(scale * math.sqrt(math.log(k * n + 1.0)), per_column=True)
    return {"massart": massart, **chaining}


def delta_fs(n: int, k: int, w, c_n: float) -> CorrectionReport:
    """Finite-sample correction for a finite K x K W, minimized exactly over beta.

    Minimizes each branch of the min inside B exactly, in closed form for a
    W of block form (see :func:`_branch_minimizers`).  ``branch_values``
    records each branch's optimum, its own term at its own minimizer (None
    for the chaining branch at K = 1).  The report carries the minimizer
    with the smaller bound and the branch active there; the reported value
    equals the objective evaluated on w at ``beta_star``, the optimizer
    certificate.
    """
    w = _checked_w(n, k, w)
    _check_real("c_n", c_n, 0.0, math.inf, "()")
    branch_values: dict[str, float | None] = {"massart": None, "chaining": None}
    best = None
    for name, beta in _branch_minimizers(n, w, c_n, abs_objective=False).items():
        values = _fs_values(n, w, c_n, beta)
        branch_values[name] = values[name]
        value, branch = _smallest(values)
        if best is None or value < best[0]:
            best = (value, branch, beta)
    value, branch, beta = best
    return CorrectionReport(
        method=CorrectionMethod.FINITE_SAMPLE,
        value=max(value, 0.0),
        beta_star=beta,
        branch=branch,
        c_n=float(c_n),
        branch_values=branch_values,
    )


def delta_fs_special(spec: ContaminationSpec, n: int, c_n: float) -> CorrectionReport:
    """Analytic candidate beta' for the parametric families, evaluated.

    beta'_0 = 1/(1-eps), the coefficient of I in W, and every beta'_k is K
    times W's within-block coefficient (see
    :func:`~noisycal.noise_model._inverse_blocks`): -eps/(1-eps) for
    randomized response, where Omega vanishes and the value is c(n)
    exactly, -b eps/(1-eps) for block RR and the paper's -p for the
    two-level model.  Used as the optimizer cross-check and as a fast
    simplified mode.
    """
    _check_int("n", n, 1)
    _check_real("c_n", c_n, 0.0, math.inf, "()")
    _, diag, within, _ = _inverse_blocks(spec)
    k = spec.k
    beta = BetaVector(beta0=diag, betas=np.full(k, k * within))
    values = _fs_values(n, build_transition(spec).W, c_n, beta)
    value, branch = _smallest(values)
    return CorrectionReport(
        method=CorrectionMethod.FINITE_SAMPLE,
        value=max(value, 0.0),
        beta_star=beta,
        branch=branch,
        c_n=float(c_n),
        branch_values=values,
    )


# ---------------------------------------------------------------------------
# asymptotic route
# ---------------------------------------------------------------------------


def estimate_covariance(cal: CalibrationSet, w, grid) -> NDArray[np.float64]:
    """Plug-in covariance of the limiting process on a threshold grid.

    With f_t(Z_i) = sum_k W[k, Ytilde_i] 1{s(X_i, k) <= t}, the estimate is
    G(t1, t2) = E_n[f_t1 f_t2] - E_n[f_t1] E_n[f_t2], returned as a
    symmetric N x N array for the N grid points.  E_n[f_t] comes from the
    cumulative kernel that also yields Delta_hat.  Joint indicator mass is
    scattered onto the grid cell of each score pair, one score column at a
    time, and accumulated with a two-dimensional cumulative sum: O(n K^2 +
    K N^2) time and O(n K + N^2) memory, instead of evaluating every grid
    pair directly.  W must be a finite K x K matrix (InvalidSpec otherwise).
    """
    v = _f_weights(cal, w)  # v[i, j] = W[j, label_i]
    n, k = cal.scores.shape
    grid = _check_array("grid", grid, ndim=1)
    if grid.size == 0:
        raise InvalidSpec("grid must be nonempty")
    if not (np.all(np.diff(grid) >= 0.0) and grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise InvalidSpec("grid must be sorted within [0, 1]")
    npts = grid.shape[0]
    e1 = _mean_f(cal, v, grid)

    # cell index of each score: first grid point >= s, so s <= t_j iff pos <= j;
    # cell npts holds the scores past the last grid point and is sliced away
    pos = np.searchsorted(grid, cal.scores.ravel(), side="left").reshape(n, k)
    width = npts + 1
    row = pos * width
    d2 = np.zeros(width * width)
    for j in range(k):
        d2 += np.bincount(
            (row + pos[:, j, None]).ravel(),
            weights=(v * v[:, j, None]).ravel(),
            minlength=width * width,
        )
    d2 = d2.reshape(width, width)[:npts, :npts]
    e2 = d2.cumsum(axis=0).cumsum(axis=1) / n

    g = e2 - np.outer(e1, e1)
    return 0.5 * (g + g.T)


_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _jittered_cholesky(
    sigma: NDArray[np.float64],
) -> tuple[NDArray[np.float64], float]:
    """Lower Cholesky factor of sigma + mult * mean(diag sigma) * I.

    ``mult`` is the first value of the jitter ladder at which the
    factorization succeeds; it is returned with the factor.  sigma must have
    a positive trace.  Raises CholeskyFailure when the whole ladder fails.
    """
    npts = sigma.shape[0]
    mean_diag = float(np.trace(sigma)) / npts
    # one copy serves every try: only its diagonal changes
    jittered = sigma.copy()
    diag = sigma.diagonal()
    for mult in _JITTER_LADDER:
        jittered.flat[:: npts + 1] = diag + mult * mean_diag
        try:
            chol = np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            continue
        return chol, mult
    raise CholeskyFailure(
        f"Cholesky failed even at jitter {_JITTER_LADDER[-1]} * mean diagonal"
    )


# The ladder's draws stream through two float32 buffers of this many draws,
# 0.8 MiB each at N = 101.  Every product repacks the N x N factor, which a
# short slice does not amortize: at N = 1601, slices of 163 draws (1 MiB)
# made the ladder ~14% slower than batches of 3,123.
_LADDER_DRAWS = 2048


def _box_muller(
    rng: np.random.Generator, out: NDArray[np.float32], scratch: NDArray[np.float32]
) -> None:
    """Fill the contiguous float32 array ``out`` with iid N(0, 1) draws.

    Box-Muller: from h = ceil(size / 2) pairs of uniforms (u, v), the
    radius r = sqrt(-2 log(1 - u)) and the angle 2 pi v give the first h
    entries r cos(2 pi v) and the rest r sin(2 pi v), the last sine dropped
    when the size is odd.  u is float64, so the radius reaches
    sqrt(106 log 2) ~ 8.6 at 1 - u = 2^-53 (float32 uniforms would stop at
    5.8); v is float32.  All h values of u are drawn before all h of v.
    The uniforms and the radius live in ``scratch``, a flat float32 array
    of at least 2h entries, so nothing is allocated.
    """
    flat = out.reshape(-1)
    n = flat.shape[0]
    h = (n + 1) // 2
    radius = scratch[: 2 * h].view(np.float64)
    rng.random(dtype=np.float64, out=radius)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    cos, sin = flat[:h], flat[h:]
    cos[...] = radius
    angle = scratch[:h]
    rng.random(dtype=np.float32, out=angle)
    np.multiply(angle, np.float32(2.0 * math.pi), out=angle)
    np.sin(angle[: n - h], out=sin)
    np.multiply(sin, cos[: n - h], out=sin)
    np.cos(angle, out=angle)
    np.multiply(cos, angle, out=cos)


def _ladder_sups(
    sigma: NDArray[np.float64], strides, m: int, seed: int
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None, float | None]:
    """Absolute suprema of m draws x = L z, L L^T the jittered sigma.

    Row j holds, per replicate, max |x| over every strides[j]-th point, all
    rows from the same draws of one ``default_rng(seed)`` stream; each
    stride is half the one before it.  Returns the float64 suprema, L and
    its jitter multiplier.  A sigma of nonpositive trace is zero (it is
    PSD up to rounding), so it is not factored: its suprema are 0 and L
    and the multiplier None.

    sigma and L stay float64.  The normals z come from ``_box_muller``;
    z and the product L z are float32 and stream through two fixed buffers
    of ``_LADDER_DRAWS`` draws: each slice holds one draw per column and is
    multiplied by a float32 copy of L in one dense product, so column i of
    the result is L z_i and each level's maxima run along contiguous rows.
    The working memory is O(N^2), independent of m; only the m suprema per
    level are kept.
    """
    if np.trace(sigma) <= 0.0:
        return np.zeros((len(strides), m)), None, None
    chol, mult = _jittered_cholesky(sigma)
    lower32 = chol.astype(np.float32)
    rng = np.random.default_rng(seed)
    npts = sigma.shape[0]
    z_buf = np.empty(_LADDER_DRAWS * npts, dtype=np.float32)
    # x_buf holds the Box-Muller scratch until the product overwrites it;
    # its size is even (_LADDER_DRAWS is), so it holds 2 ceil(b N / 2) floats
    x_buf = np.empty(_LADDER_DRAWS * npts, dtype=np.float32)
    # slices of equal size (at least 1,000 draws), not full ones plus a
    # remainder: a product with a few columns can take a BLAS small-matrix
    # or matrix-vector kernel that rounds differently, and the suprema would
    # then depend on the split
    slices = -(-m // _LADDER_DRAWS)
    edges = [m * i // slices for i in range(slices + 1)]
    sups = np.empty((len(strides), m))
    for start, stop in zip(edges, edges[1:]):
        b = stop - start
        z = z_buf[: npts * b].reshape(npts, b)
        x = x_buf[: npts * b].reshape(npts, b)
        _box_muller(rng, z, x_buf)
        np.matmul(lower32, z, out=x)
        np.abs(x, out=x)
        # each level adds the points halfway between the coarser level's,
        # so every point is read once; reduced in float32, then assigned
        # (the cast to float64 is exact)
        level = x[:: strides[0]].max(axis=0)
        sups[0, start:stop] = level
        for j in range(1, len(strides)):
            np.maximum(level, x[strides[j] :: strides[j - 1]].max(axis=0), out=level)
            sups[j, start:stop] = level
    return sups, chol, mult


def _mean_se(stat: NDArray[np.float64]):
    """Mean and standard error along the last axis."""
    return stat.mean(axis=-1), stat.std(axis=-1, ddof=1) / math.sqrt(stat.shape[-1])


def _condition_number(chol: NDArray[np.float64]) -> float:
    """Exact 2-norm condition number of the factored covariance L L^T.

    The ratio of its extreme eigenvalues, which are positive because the
    jittered factor is nonsingular.
    """
    eig = np.linalg.eigvalsh(chol @ chol.T)
    return float(eig[-1] / eig[0])


def delta_asy(
    cal: CalibrationSet,
    w,
    h_ladder=(1.0 / 25.0, 1.0 / 50.0, 1.0 / 100.0),
    m: int = 100_000,
    seed: int = 0,
) -> CorrectionReport:
    """Asymptotic correction via Gaussian suprema plus Richardson.

    For each step h the unit interval is discretized at the 1/h + 1 points
    {0, h, 2h, ..., 1}.  The ladder needs at least two steps and they must
    halve, so each grid is a strided sub-grid of the finest: one covariance,
    one factor and one stream of m draws serve every level.  The normals
    are drawn by a vectorized Box-Muller transform, so the values for a
    given seed differ from releases that used NumPy's ziggurat sampler by
    Monte-Carlo error only.  The draws stream through two fixed float32
    buffers of 2,048 draws (0.8 MiB each at N = 101), so the working memory
    is O(nK + N^2), independent of m; only the m suprema of each level are
    kept.  A covariance of nonpositive trace is zero, and gives 0.  One
    Richardson pass with exponent 1/2 (the grid bias of a Gaussian supremum
    is O(sqrt(h))) extrapolates the two finest levels A(h) and A(h/2) to
    (sqrt(2) A(h/2) - A(h)) / (sqrt(2) - 1); coarser levels are only
    reported.  The pass runs per replicate, which gives the SE of the
    extrapolated value, and the result is scaled by 1/sqrt(n).

    The default ladder h = 1/25, 1/50, 1/100 ends on a grid of N = 101
    points.  Each draw costs O(N^2) (the dense product), while the
    extrapolate barely moves with N: on the exact Brownian-bridge
    covariance it lies within 0.001 of the exact supremum sqrt(pi/2) log 2
    at N = 101 as at N = 1601.  A finer ladder can be passed explicitly.
    """
    _check_int("m", m, 1000)
    _check_int("seed", seed, 0)
    hs = sorted(_check_array("h_ladder", h_ladder, ndim=1).tolist(), reverse=True)
    for h in hs:
        steps = 1.0 / h if h > 0.0 else 0.0
        if not 0.0 < steps < math.inf or abs(round(steps) - steps) > 1e-9:
            raise InvalidSpec(f"1/h must be a positive integer, got h={h}")
    if len(hs) < 2:
        raise InvalidSpec("h_ladder needs at least two halving steps")
    for coarse, fine in zip(hs, hs[1:]):
        if abs(coarse / fine - 2.0) > 1e-12:
            raise LadderMismatch(
                f"steps {coarse} and {fine} do not halve (ratio must be 2)"
            )
    r2 = math.sqrt(2.0)
    weights = np.zeros(len(hs))
    weights[-2:] = np.array([-1.0, r2]) / (r2 - 1.0)
    grid = np.linspace(0.0, 1.0, int(round(1.0 / hs[-1])) + 1)
    strides = [int(round(h / hs[-1])) for h in hs]
    sigma = estimate_covariance(cal, w, grid)
    sups, chol, jitter = _ladder_sups(sigma, strides, m, seed)
    condition_number = math.inf if chol is None else _condition_number(chol)
    means, ses = _mean_se(sups)
    extrapolated, extrapolated_se = _mean_se(weights @ sups)
    diagnostics = {
        "h_levels": hs,
        "M": int(m),
        "raw": [
            {"h": h, "estimate": float(e), "se": float(se)}
            for h, e, se in zip(hs, means, ses)
        ],
        "extrapolated": float(extrapolated),
        "extrapolated_se": float(extrapolated_se),
        "condition_number": condition_number,
        "cholesky_jitter": jitter,
    }
    return CorrectionReport(
        method=CorrectionMethod.ASYMPTOTIC,
        value=max(extrapolated, 0.0) / math.sqrt(cal.n),
        mc_diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def delta_star_star_bound(n: int, k: int, w) -> float:
    """Bound on the expected absolute supremum of the centered process.

    The same two branches as :func:`delta_fs`, with absolute values on the
    beta coefficients and the analytic envelope sqrt(pi/(2 n)) as the linear
    weight; the bound is only valid with the envelope, not with c(n).  A W
    of block form takes the closed forms and loads no SciPy, any other W
    two sparse LPs (see :func:`_branch_minimizers`).
    """
    scale = cn_envelope(n)
    w = _checked_w(n, k, w)
    best = min(
        _smallest(_fs_values(n, w, scale, beta, absolute=True))[0]
        for beta in _branch_minimizers(n, w, scale, abs_objective=True).values()
    )
    return float(max(best, 0.0))


def upper_bound_diagnostics(
    n: int,
    k: int,
    t,
    rho,
    rho_tilde,
    delta_n: float,
    delta_ss_n: float,
    alpha: float = 0.1,
) -> dict:
    """The diagnostics d(n), phi(n) and the inflation-floor threshold.

    ``delta_ss_n`` is the value of :func:`delta_star_star_bound` at n.  With
    M[k, l] = T[k, l] rho[l] / rho_tilde[k] and V = M^-1,

        d(n)   = n^(1/4) * delta_ss_n,
        phi(n) = 3 delta_ss_n + 2/n + n^(-1/4)
                 + (max_k(rho[k]/rho_tilde[k] * sum_l |V[k, l]|) - 1)/(n + 1),
        threshold = -alpha + delta_n + sqrt(log(2 n)/(2 n)) + d(n).

    The threshold is the floor the true inflation curve must stay above for
    the two-sided coverage guarantee; alpha enters the formula even though
    the rest is model-only, so it is an explicit argument here.
    """
    _check_int("n", n, 1)
    _check_int("k", k, 1)
    t = _check_square("t", t.T if isinstance(t, TransitionMatrix) else t, k)
    rho = _check_array("rho", rho)
    rho_tilde = _check_array("rho_tilde", rho_tilde)
    if rho.shape != (k,) or rho_tilde.shape != (k,):
        raise InvalidSpec("rho and rho_tilde must be length-K")
    if np.any(rho <= 0.0) or np.any(rho_tilde <= 0.0):
        raise InvalidSpec("rho and rho_tilde must be strictly positive")
    if abs(rho.sum() - 1.0) > 1e-6 or abs(rho_tilde.sum() - 1.0) > 1e-6:
        raise InvalidSpec("rho and rho_tilde must sum to 1")
    _check_alpha(alpha)
    _check_real("delta_n", delta_n, 0.0, math.inf, "[)")
    _check_real("delta_ss_n", delta_ss_n, 0.0, math.inf, "[)")
    mix = t * rho[None, :] / rho_tilde[:, None]
    v = _inverse(mix, SingularM, "mixing matrix M")
    bracket = float(np.max(rho / rho_tilde * np.abs(v).sum(axis=1)))
    d_n = n**0.25 * delta_ss_n
    phi_n = 3.0 * delta_ss_n + 2.0 / n + n**-0.25 + (bracket - 1.0) / (n + 1.0)
    threshold = -alpha + delta_n + math.sqrt(math.log(2.0 * n) / (2.0 * n)) + d_n
    return {"d_n": d_n, "phi_n": phi_n, "assumption_a6_threshold": threshold}
