"""Calibration correction factors delta(n) and related diagnostics.

Three routes produce a correction:

* ``c_of_n``: exact c(n) = E[max_i (i/n - U_(i))], the mean of the
  one-sided Kolmogorov-Smirnov statistic, in closed form as Q(n) / (2n)
  with Ramanujan's Q-function, summed up to n = 10^6 and taken from
  Ramanujan's series above; bounded above by sqrt(pi / (2 n)).
* ``delta_fs``: finite-sample bound c(n) (beta_0 + mean_k beta_k)
  + B(K, n, beta)/sqrt(n), minimized exactly over beta one branch of the min
  inside B at a time; the branches, each with its constant, are declared
  once (``_branches``), and the bound is the smaller branch optimum.  The
  chaining branch of every W has one exact kernel (``_chaining_minimizer``).
  The Massart branch is in closed form when ``noise_model._block_form``
  reads W's block form (diag I + within B + across (J - B), blocks of m
  labels under any labelling), as every family's inverse has; any other W
  takes one sparse LP by interior point (O(K^2) memory), the package's one
  use of SciPy.  ``_fs_report`` builds both finite-sample reports.
* ``delta_asy``: asymptotic route; estimates the plug-in covariance of the
  limiting Gaussian process once, on the finest grid of a halving ladder
  (``estimate_covariance``), factors it by one symmetric eigendecomposition
  with its negative eigenvalues clipped (``_psd_factor``), simulates its
  absolute supremum on every level from one stream of m float32 draws,
  extrapolates the two finest levels by one Richardson pass, cuts the
  extrapolate's Monte-Carlo error with two control variates of exactly
  known mean, and rescales by 1/sqrt(n), in O(nK + N^2) working memory,
  independent of m.  The default ladder is h = 1/25, 1/50, 1/100 (finest
  grid N = 101 points) with m = 50,000 draws; each draw costs O(N) normals
  and an O(N^2) product, and at N = 101 the normals dominate.

``delta_star_star_bound`` and ``upper_bound_diagnostics`` compute the purely
diagnostic quantities (the bound on the expected absolute supremum of the
centered process, d(n), phi(n), and the inflation-floor threshold); the
bound is the smaller of its two branch optima, by the same solvers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .empirical import CalibrationSet, _f_weights
from .errors import (
    CholeskyFailure,
    InvalidSpec,
    LadderMismatch,
    SingularM,
    SolverFailure,
    _check_alpha,
    _check_array,
    _check_int,
    _check_n,
    _check_real,
    _check_square,
    _check_type,
)
from .noise_model import (
    ContaminationSpec,
    TransitionMatrix,
    _as_w,
    _block_form,
    _conditioned,
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


@dataclass(frozen=True, eq=False)
class BetaVector:
    """The K+1 coefficients parameterizing the decomposition W = Wbar + Omega."""

    beta0: float
    betas: NDArray[np.float64]

    def __post_init__(self) -> None:
        _check_real("beta0", self.beta0)
        b = _check_array("betas", self.betas, ndim=1).copy()
        b.setflags(write=False)
        object.__setattr__(self, "betas", b)


@dataclass(frozen=True, eq=False)
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
    supremum and its standard error, the two fitted control coefficients and
    the variance factor they gained, and ``covariance_eigenvalues``, the
    smallest and largest eigenvalue of the finest-grid covariance before its
    negative ones are clipped to 0.  ``condition_number`` optionally carries
    the transition-matrix conditioning for audit.
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
    _check_n(n)
    return math.sqrt(math.pi / (2.0 * n))


# c_of_n sums Q(n) up to this n (arrays of at most 8,944 entries) and takes
# Ramanujan's series above it, where the two agree to about 1e-15 relative
_CN_SERIES_ABOVE = 10**6


def c_of_n(n: int) -> float:
    """Exact c(n) = E[max_i (i/n - U_(i))] for n uniform order statistics.

    The maximum is the one-sided Kolmogorov-Smirnov statistic D_n^+, whose
    mean is Q(n) / (2n) with Ramanujan's Q-function
    Q(n) = sum_{k>=1} prod_{j<k} (1 - j/n) (Knuth, TAOCP vol. 1, 1.2.11.3).
    The terms fall like exp(-k^2 / 2n), so the sum stops at k = sqrt(80 n),
    past which they are below e^-40: O(sqrt(n)) time and memory.  Above
    n = 10^6 that memory would grow without bound, so Q(n) is Ramanujan's
    series sqrt(pi n/2) - 1/3 + (1/12) sqrt(pi/(2n)) - 4/(135 n)
    + (1/288) sqrt(pi/(2n^3)), whose next term is O(1/n^2): O(1) time.
    n above 10^300 raises InvalidSpec, as at every entry point that takes n.
    """
    _check_n(n)
    n = int(n)
    if n > _CN_SERIES_ABOVE:
        r = math.sqrt(math.pi / (2.0 * n))
        q = n * r - 1.0 / 3.0 + r / 12.0 - 4.0 / (135.0 * n) + r / (288.0 * n)
        return q / (2.0 * n)
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
    _check_n(n)
    _check_int("k", k, 1)
    return _as_w(w, k)


def _branches(k: int, n: int) -> dict[str, float]:
    """The constant of each branch inside the min of B(K, n, beta), chaining first.

    Chaining, 24 (2 log K + 1)/(2 log K - 1) sqrt(2 K log K), for
    2 log K > 1 (K >= 2), times the largest entry of |Omega|; Massart,
    sqrt(log(K n + 1)), times its largest column sum (see ``_BRANCH_RULES``).
    A column sum is at most K times the largest entry, so chaining cannot
    beat Massart while K sqrt(log(K n + 1)) is at most its constant: 743
    against 1335 at K = 200, n = 5000.
    """
    branches = {}
    if k >= 2:
        log_k = math.log(k)
        ratio = (2.0 * log_k + 1.0) / (2.0 * log_k - 1.0)
        branches["chaining"] = 24.0 * ratio * math.sqrt(2.0 * k * log_k)
    branches["massart"] = math.sqrt(math.log(k * n + 1.0))
    return branches


def _branch_terms(n: int, beta: BetaVector, w) -> dict[str, float | None]:
    """The branches of :func:`_branches` at beta, before the factor 2;
    Massart first, chaining None for K = 1."""
    abs_omega = np.abs(omega_matrix(w, beta))
    terms: dict[str, float | None] = {"massart": None, "chaining": None}
    for name, constant in _branches(abs_omega.shape[0], n).items():
        terms[name] = float(_BRANCH_RULES[name][0](abs_omega)) * constant
    return terms


def b_term(k: int, n: int, beta: BetaVector, w) -> tuple[float, str]:
    """The deviation term B(K, n, beta) and which branch attained it.

    B is twice the smaller branch of :func:`_branches` at beta, Massart on a
    tie and alone for K = 1.  W must be a finite K x K matrix.
    """
    term, branch = _smallest(_branch_terms(n, beta, _checked_w(n, k, w)))
    return 2.0 * term, branch


def _branch_lp(
    w: NDArray[np.float64], weight: float, z_coef: float, abs_objective: bool
) -> BetaVector:
    """Exact sparse LP for the Massart branch of a W without block form.

    Minimizes weight * (beta0 + mean_k beta_k) + z_coef * z (|beta| when
    ``abs_objective``) over beta0, beta_1..K, [u0, u_1..K], A_kl and z, with
    |Omega| <= A and every column sum of A at most z.  ``A_ub`` is sparse (at
    most 3 nonzeros per row outside the K column-sum rows: O(K^2) memory),
    for HiGHS's interior point with crossover, which scales in K where the
    simplex does not.  SciPy, the optional ``lp`` extra, is imported here,
    so no other route loads it; without it this raises SolverFailure.
    """
    try:
        from scipy import sparse
        from scipy.optimize import linprog
    except ImportError as exc:
        raise SolverFailure(
            "a W without the block form needs SciPy's LP solver: "
            "pip install 'noisycal[lp]'"
        ) from exc

    k = w.shape[0]
    nb = 1 + k
    eye, pair, twice = sparse.eye_array, np.array([[1.0], [-1.0]]), np.ones((2, 1))
    # the coefficients of Omega[kk, ll] = W[kk, ll] - beta0 1[kk = ll] - beta_kk / K
    # on beta0 and beta_1..K, one row per cell kk * K + ll
    omega = -sparse.hstack(
        [np.eye(k).reshape(-1, 1), sparse.kron(eye(k), np.ones((k, 1))) / k]
    )
    # columns beta, A, z: +Omega <= A and -Omega <= A in rows 2 cell and
    # 2 cell + 1, then each column sum of A at most z
    grid = [
        [sparse.kron(omega, pair), -sparse.kron(eye(k * k), twice), None],
        [None, sparse.hstack([eye(k)] * k), -np.ones((k, 1))],
    ]
    b_ub = [-np.kron(w.ravel(), pair.ravel()), np.zeros(k)]
    linear = np.r_[weight, np.full(k, weight / k)]
    cost = [linear, np.zeros(k * k), [z_coef]]
    if abs_objective:
        # the u_j after the betas, and +-beta_j <= u_j in the last rows
        for row in grid:
            row.insert(1, None)
        grid.append(
            [sparse.kron(eye(nb), pair), -sparse.kron(eye(nb), twice), None, None]
        )
        b_ub.append(np.zeros(2 * nb))
        cost.insert(0, np.zeros(nb))

    res = linprog(
        np.concatenate(cost),
        A_ub=sparse.bmat(grid, format="csr"),
        b_ub=np.concatenate(b_ub),
        bounds=(None, None),
        method="highs-ipm",
    )
    if res.status != 0 or res.x is None:
        raise SolverFailure(f"LP did not reach an optimum: {res.message}")
    return BetaVector(beta0=float(res.x[0]), betas=res.x[1:nb].copy())


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


def _block_minimizer(
    form: tuple, weight: float, z_coef: float, abs_objective: bool
) -> BetaVector:
    """The problem of :func:`_branch_lp`, solved exactly from W's block form.

    A W of ``form`` (blocks, diag, s, o), K labels in blocks of m
    (:func:`~noisycal.noise_model._block_form`), with d = diag + s on its
    diagonal, s within and o across blocks, is invariant under a permutation
    group transitive on the classes, and so is the convex problem, so a
    minimizer averaged over the group has every beta_k = K x.  Every column
    of Omega then sums |d - beta0 - x| once, |s - x| m - 1 times and
    |o - x| K - m times.  For fixed x the best beta0 is d - x (z >= weight)
    or 0 (|beta| with z < weight); what is left is convex and piecewise
    linear in x with kinks at d, 0, s and o, so the best of those four points
    is a minimizer.  O(K) work.  A signed problem must be bounded below, as
    :func:`_branch_minimizers` checks first.
    """
    blocks, diag, s, o = form
    k, m, d = blocks.size, np.count_nonzero(blocks == 0), diag + s
    x = np.array([d, 0.0, s, o])
    beta0 = np.zeros(4) if abs_objective and z_coef < weight else d - x
    column = np.abs(d - beta0 - x) + (m - 1) * np.abs(s - x) + (k - m) * np.abs(o - x)
    linear = np.abs(beta0) + k * np.abs(x) if abs_objective else beta0 + k * x
    best = int(np.argmin(weight * linear + z_coef * column))
    return BetaVector(beta0=float(beta0[best]), betas=np.full(k, k * x[best]))


def _chaining_minimizer(
    w: NDArray[np.float64], weight: float, z_coef: float, abs_objective: bool
) -> BetaVector:
    """The chaining branch's problem, solved exactly for any finite W, K >= 2.

    Minimizes weight (beta0 + sum_k c_k) + z t over beta0 and c_k = beta_k / K
    (|beta0| and |c_k| when ``abs_objective``), t the largest |Omega[k, l]|.
    Fix beta0, and let x_k = W_kk - beta0 and hi_k, lo_k be the extremes of
    row k off the diagonal.  Row k of Omega lies within t of 0 iff c_k lies
    in [M_k - t, m_k + t], M_k = max(x_k, hi_k), m_k = min(x_k, lo_k), so
    t >= t0 = max_k (M_k - m_k) / 2 = max((p - beta0) / 2, q / 2,
    (beta0 + r) / 2), with p, q and r the largest W_kk - lo_k, hi_k - lo_k
    and hi_k - W_kk.  Signed (z >= K weight, checked first): c_k = M_k - t
    and t = t0.  |beta|: c_k is 0 clipped to its interval, so |c_k| =
    (A_k - t)_+ with A_k = max(M_k, -m_k) = max(|x_k|, e_k), e_k =
    max(hi_k, -lo_k), and t = max(t0, the (floor(z / weight) + 1)-th largest
    A_k).  The optimum f(beta0) is a partial minimum of a convex problem,
    piecewise linear and bounded below, so one of its kinks attains it:
    W_kk - hi_k, where M_k changes line, and where t0's lines meet; for
    |beta| also 0, the kinks W_kk and W_kk -+ e_k of the A_k, where an A_k
    line meets a t0 line and, below z = K weight (t may follow the A_k),
    where two meet.  The O(K) kinks (O(K^2) below K weight) are evaluated K
    at a time, in O(K) each: O(K^2) time (O(K^3)) and O(K^2) working memory.
    """
    k, d = w.shape[0], w.diagonal()
    off = ~np.eye(k, dtype=bool)
    hi = w.max(axis=1, where=off, initial=-np.inf)
    lo = w.min(axis=1, where=off, initial=np.inf)
    p, q, r = np.array([d - lo, hi - lo, hi - d]).max(axis=1)
    kinks = [d - hi, [p - q, q - r, (p - r) / 2.0]]
    if abs_objective:
        # where an A_k line (W_kk - beta0, e_k, beta0 - W_kk) meets a t0 line
        # and, below z = K weight, another A_k line
        e = np.maximum(hi, -lo)
        kinks += [[0.0], d, d - e, d + e, 2 * d - p, d - q / 2, (2 * d - r) / 3]
        kinks += [p - 2 * e, 2 * e - r, (2 * d + p) / 3, d + q / 2, 2 * d + r]
        if z_coef < k * weight:
            kinks += [(d[:, None] + np.r_[-e, e]).ravel(), (d[:, None] + d).ravel() / 2]
    # the ascending index of the A_k that t follows, when one does
    rank = k - 1 - int(min(z_coef // weight, k))

    def solve(beta0):
        # the objective and the best c at each beta0 of a vector
        x = d - beta0[:, None]
        upper, lower = np.maximum(x, hi), np.minimum(x, lo)
        t = (upper - lower).max(axis=1) / 2.0
        if not abs_objective:
            c = upper - t[:, None]
            return weight * (beta0 + c.sum(axis=1)) + z_coef * t, c
        if rank >= 0:
            a = np.partition(np.maximum(upper, -lower), rank, axis=1)
            t = np.maximum(t, a[:, rank])
        c = np.clip(0.0, upper - t[:, None], lower + t[:, None])
        return weight * (np.abs(beta0) + np.abs(c).sum(axis=1)) + z_coef * t, c

    beta0 = np.concatenate(kinks)
    values = [solve(part)[0] for part in np.array_split(beta0, -(-beta0.size // k))]
    best = beta0[[int(np.argmin(np.concatenate(values)))]]
    return BetaVector(beta0=float(best[0]), betas=k * solve(best)[1][0])


def _massart_minimizer(
    w: NDArray[np.float64], weight: float, z_coef: float, abs_objective: bool
) -> BetaVector:
    """The Massart branch's problem: ``_block_form`` alone picks the solver,
    :func:`_block_minimizer` on W's block form, :func:`_branch_lp` otherwise."""
    form = _block_form(w)
    if form is None:
        return _branch_lp(w, weight, z_coef, abs_objective)
    return _block_minimizer(form, weight, z_coef, abs_objective)


# Each branch of ``_branches`` by name: the size of |Omega| that its constant
# multiplies; its boundedness edge, the least z coefficient at which its signed
# problem is bounded below, from K and the weight, with the branch's and the
# edge's names in the message; and its exact minimizer.
_BRANCH_RULES = {
    "chaining": (
        np.max, lambda k, wt: k * wt, ("chaining", "K * weight ="), _chaining_minimizer
    ),
    "massart": (
        lambda a: a.sum(axis=0).max(), lambda k, wt: wt, ("Massart", "the weight"),
        _massart_minimizer,
    ),
}


def _branch_minimizers(
    n: int, w: NDArray[np.float64], weight: float, abs_objective: bool
) -> dict[str, BetaVector]:
    """A minimizer of each branch of :func:`_branches`, in its order.

    A branch's problem is weight * (beta0 + mean_k beta_k) + 2 branch /
    sqrt(n), |beta| when ``abs_objective``, solved by the branch's minimizer
    in ``_BRANCH_RULES``: the exact kernel :func:`_chaining_minimizer` for
    every W, and :func:`_massart_minimizer`.  A signed problem is unbounded
    below when its z coefficient is under the branch's edge, the weight
    (Massart) or K times it (chaining), and raises SolverFailure naming it
    before its solver runs, so before any LP.  w is a finite K x K array
    (:func:`_checked_w`).
    """
    k = w.shape[0]
    scale = 2.0 / math.sqrt(n)
    minimizers = {}
    for name, constant in _branches(k, n).items():
        _, edge, (label, what), solve = _BRANCH_RULES[name]
        z_coef, floor = scale * constant, edge(k, weight)
        if not abs_objective and not floor <= z_coef:
            raise SolverFailure(
                f"the {label} branch is unbounded below: its z coefficient {z_coef} "
                f"is below {what} {floor}"
            )
        minimizers[name] = solve(w, weight, z_coef, abs_objective)
    return minimizers


def _fs_report(n: int, w, c_n: float, betas: dict[str, BetaVector]) -> CorrectionReport:
    """The finite-sample report of ``betas``, a beta per branch of :func:`_branches`.

    Each branch is evaluated at its own beta (``branch_values``, chaining None
    at K = 1); ``value`` is the smaller, Massart on a tie, at ``beta_star``.
    """
    branch_values: dict[str, float | None] = {"massart": None, "chaining": None}
    for name, beta in betas.items():
        branch_values[name] = _fs_values(n, w, c_n, beta)[name]
    value, branch = _smallest(branch_values)
    return CorrectionReport(
        method=CorrectionMethod.FINITE_SAMPLE,
        value=max(value, 0.0),
        beta_star=betas[branch],
        branch=branch,
        c_n=float(c_n),
        branch_values=branch_values,
    )


def delta_fs(n: int, k: int, w, c_n: float) -> CorrectionReport:
    """Finite-sample correction for a finite K x K W, minimized exactly over beta.

    Minimizes each branch of the min inside B exactly (see
    :func:`_branch_minimizers`): chaining by its kernel for every W, Massart
    in closed form for a W of block form and by one sparse LP otherwise.  A
    branch unbounded below raises SolverFailure naming it, before any LP.
    ``branch_values`` records each branch's optimum, its own term at its own
    minimizer (None for the chaining branch at K = 1).  ``value`` is the
    smaller optimum, Massart on a tie, and ``branch`` names it: a branch's
    optimum is at most that branch at any beta, so no beta gives less.
    ``beta_star`` is that branch's minimizer, where the bound equals it.
    """
    w = _checked_w(n, k, w)
    _check_real("c_n", c_n, 0.0, math.inf, "()")
    return _fs_report(n, w, c_n, _branch_minimizers(n, w, c_n, abs_objective=False))


def delta_fs_special(spec: ContaminationSpec, n: int, c_n: float) -> CorrectionReport:
    """Analytic candidate beta' for the parametric families, evaluated.

    beta'_0 is the coefficient of I in W and every beta'_k is K times W's
    within-block coefficient, both read off W's own block form
    (:func:`~noisycal.noise_model._block_form`): 1/(1-eps) with
    -eps/(1-eps) for randomized response, where Omega vanishes and the value
    is c(n) exactly, -b eps/(1-eps) for block RR and the paper's -p for the
    two-level model.  Where W reads as one block of K labels (block RR with
    b = K, where W = I, and the two-level model at K = 2) Omega vanishes too,
    and the value is c(n).  Used as the optimizer cross-check and as a fast
    simplified mode; :func:`_fs_special` takes a channel already built, of
    any W with the block form.
    """
    _check_n(n)
    _check_real("c_n", c_n, 0.0, math.inf, "()")
    return _fs_special(build_transition(spec), n, c_n)


def _fs_special(tm: TransitionMatrix, n: int, c_n: float) -> CorrectionReport:
    """:func:`delta_fs_special` on a built channel, n and c_n checked.

    Any channel whose W has the block form qualifies, a family's T read from
    a file included; any other W raises InvalidSpec.
    """
    form = _block_form(tm.W)
    if form is None:
        raise InvalidSpec(
            "the simplified correction needs a W of block form (diag I + within B "
            "+ across (J - B), blocks of m labels); this channel's W has none"
        )
    _, diag, within, _ = form
    beta = BetaVector(beta0=diag, betas=np.full(tm.k, tm.k * within))
    return _fs_report(n, tm.W, c_n, dict.fromkeys(_branches(tm.k, n), beta))


# ---------------------------------------------------------------------------
# asymptotic route
# ---------------------------------------------------------------------------


def estimate_covariance(cal: CalibrationSet, w, grid) -> NDArray[np.float64]:
    """Plug-in covariance of the limiting process on a threshold grid.

    With f_t(Z_i) = sum_k W[k, Ytilde_i] 1{s(X_i, k) <= t}, the estimate is
    G(t1, t2) = E_n[f_t1 f_t2] - E_n[f_t1] E_n[f_t2], returned as a
    symmetric N x N array for the N grid points.  Both moments are read off
    one assignment of scores to grid cells, with no sort: E_n[f_t] is the
    cumulative cell weight, and joint mass is scattered onto the cell pair
    of each score pair, one score column at a time, then cumulatively
    summed in two dimensions: O(n K^2 + K N^2) time, O(n K + N^2) memory.
    W must be a finite K x K matrix (InvalidSpec otherwise).
    """
    v = _f_weights(cal, w)  # v[i, j] = W[j, label_i]
    n, k = cal.scores.shape
    grid = _check_array("grid", grid, ndim=1)
    if grid.size == 0:
        raise InvalidSpec("grid must be nonempty")
    if not (np.all(np.diff(grid) >= 0.0) and grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise InvalidSpec("grid must be sorted within [0, 1]")
    npts = grid.shape[0]

    # cell index of each score: first grid point >= s, so s <= t_j iff pos <= j;
    # cell npts holds the scores past the last grid point and is sliced away
    pos = np.searchsorted(grid, cal.scores.ravel(), side="left").reshape(n, k)
    width = npts + 1
    e1 = np.bincount(pos.ravel(), weights=v.ravel(), minlength=width)[:npts].cumsum() / n
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


# A covariance whose smallest eigenvalue lies below -_PSD_TOL times its mean
# diagonal is refused: so negative an eigenvalue is no rounding of a PSD matrix
_PSD_TOL = 1e-6


def _psd_factor(
    sigma: NDArray[np.float64],
) -> tuple[NDArray[np.float64], tuple[float, float]]:
    """F = Q sqrt(max(Lambda, 0)) from sigma = Q Lambda Q^T, and sigma's
    (lambda_min, lambda_max) before clipping.

    F F^T is the nearest PSD matrix to sigma in the Frobenius norm (Higham,
    Linear Algebra Appl. 103, 1988), whatever sigma's rank.  A plug-in
    covariance is singular by construction (its t = 0 row vanishes when no
    score is 0, its t = 1 row when every column of W sums to 1, as a
    channel's does), so it has no Cholesky factor.  A sigma of nonpositive
    trace is zero up to rounding and gives the zero factor.  Raises
    CholeskyFailure when lambda_min is below -``_PSD_TOL`` times the mean
    diagonal, or when the eigendecomposition fails.
    """
    try:
        lam, q = np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(f"covariance eigendecomposition failed: {exc}") from exc
    extremes = (float(lam[0]), float(lam[-1]))
    mean_diag = float(np.trace(sigma)) / sigma.shape[0]
    if mean_diag <= 0.0:
        return np.zeros_like(sigma), extremes
    if lam[0] < -_PSD_TOL * mean_diag:
        raise CholeskyFailure(
            f"covariance is not PSD: its smallest eigenvalue {lam[0]:.6g} is below "
            f"-{_PSD_TOL:g} * mean diagonal ({mean_diag:.6g})"
        )
    return q * np.sqrt(np.maximum(lam, 0.0)), extremes


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
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], tuple]:
    """Absolute suprema of m draws x = F z, F the :func:`_psd_factor` of
    sigma, and two centred control variates per draw.

    Row j of the suprema holds, per replicate, max |x| over every
    strides[j]-th point, all rows from the same draws of one
    ``default_rng(seed)`` stream; each stride is half the one before it.
    The controls are S1 = sum_j |x_j| and S2 = sum_j x_j^2 over all N points,
    each less its exact mean: with sigma_j^2 = sum_l F[j, l]^2 of the float32
    factor actually multiplied, E S1 = sqrt(2/pi) sum_j sigma_j and
    E S2 = sum_j sigma_j^2.  Returns the float64 suprema, the 2 x m float64
    controls, F and sigma's extreme eigenvalues (lambda_min, lambda_max).
    A sigma of nonpositive trace has the zero factor, so its suprema and
    controls are 0.

    sigma and F stay float64.  The normals z come from ``_box_muller``;
    z and the product F z are float32 and stream through two fixed buffers
    of ``_LADDER_DRAWS`` draws: each slice holds one draw per column and is
    multiplied by a float32 copy of F in one dense product, so column i of
    the result is F z_i and each level's maxima run along contiguous rows.
    The squares go into the z buffer, free after the product, and both
    control sums accumulate in float64.  The working memory is O(N^2),
    independent of m; only the m suprema per level and the 2 m controls
    are kept.
    """
    factor, eigenvalues = _psd_factor(sigma)
    factor32 = factor.astype(np.float32)
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
    controls = np.empty((2, m))
    for start, stop in zip(edges, edges[1:]):
        b = stop - start
        z = z_buf[: npts * b].reshape(npts, b)
        x = x_buf[: npts * b].reshape(npts, b)
        _box_muller(rng, z, x_buf)
        np.matmul(factor32, z, out=x)
        np.square(x, out=z)
        controls[1, start:stop] = z.sum(axis=0, dtype=np.float64)
        np.abs(x, out=x)
        controls[0, start:stop] = x.sum(axis=0, dtype=np.float64)
        # each level adds the points halfway between the coarser level's,
        # so every point is read once; reduced in float32, then assigned
        # (the cast to float64 is exact)
        level = x[:: strides[0]].max(axis=0)
        sups[0, start:stop] = level
        for j in range(1, len(strides)):
            np.maximum(level, x[strides[j] :: strides[j - 1]].max(axis=0), out=level)
            sups[j, start:stop] = level
    rounded = factor32.astype(np.float64)
    variances = (rounded * rounded).sum(axis=1)
    controls[0] -= math.sqrt(2.0 / math.pi) * np.sqrt(variances).sum()
    controls[1] -= variances.sum()
    return sups, controls, factor, eigenvalues


def _mean_se(stat: NDArray[np.float64]):
    """Mean and standard error along the last axis."""
    return stat.mean(axis=-1), stat.std(axis=-1, ddof=1) / math.sqrt(stat.shape[-1])


def _controlled_mean_se(values: NDArray[np.float64], controls: NDArray[np.float64]):
    """Regression estimate of E values from controls of known mean zero.

    beta fits the values on the controls by least squares with an intercept
    (Glasserman, Monte Carlo Methods in Financial Engineering, section 4.1).
    It is solved from the sample covariances, so no m x 2 copy is made, and
    zero controls fit beta = 0.  Returns the mean and SE of
    values - beta @ controls, beta, and the variance factor: the plain
    variance of the values over that of the adjusted ones (1 if that is 0).
    """
    m = values.shape[0]
    control_means = controls.mean(axis=1)
    gram = controls @ controls.T / m - np.outer(control_means, control_means)
    cross = controls @ values / m - control_means * values.mean()
    beta = np.linalg.lstsq(gram, cross, rcond=None)[0]
    adjusted = values - beta @ controls
    mean, se = _mean_se(adjusted)
    factor = (_mean_se(values)[1] / se) ** 2 if se > 0.0 else 1.0
    return mean, se, beta, factor


def delta_asy(
    cal: CalibrationSet,
    w,
    h_ladder=(1.0 / 25.0, 1.0 / 50.0, 1.0 / 100.0),
    m: int = 50_000,
    seed: int = 0,
) -> CorrectionReport:
    """Asymptotic correction via Gaussian suprema plus Richardson.

    For each step h the unit interval is discretized at the 1/h + 1 points
    {0, h, 2h, ..., 1}.  The ladder needs at least two steps and they must
    halve, so each grid is a strided sub-grid of the finest: one covariance,
    one factor and one stream of m draws serve every level.  The normals
    are drawn by a vectorized Box-Muller transform, and stream through fixed
    buffers (:func:`_ladder_sups`): O(nK + N^2) working memory, independent
    of m.  The factor comes from one eigendecomposition (:func:`_psd_factor`),
    whose extreme eigenvalues are recorded as ``covariance_eigenvalues``.  A
    covariance of nonpositive trace is zero, and gives 0.  One Richardson
    pass with exponent 1/2 (the grid bias of a Gaussian supremum is
    O(sqrt(h))) takes the two finest levels A(h) and A(h/2) to
    (sqrt(2) A(h/2) - A(h)) / (sqrt(2) - 1), per replicate; coarser levels
    are only reported, as plain means and SEs.  ``extrapolated`` and its SE
    come from one least-squares fit of the extrapolate on two controls of
    exactly known mean (:func:`_ladder_sups`, :func:`_controlled_mean_se`),
    which records ``control_coefficients`` and ``variance_factor``.  Fitting
    the 2 coefficients on the same draws biases the mean by O(1/m), against
    an SE of O(1/sqrt(m)): at m = 50,000 the ratio 1/sqrt(m) is 0.45%, so
    the bias is well under 1% of the SE.  The result is scaled by
    1/sqrt(n).

    The default m = 50,000 is the smallest multiple of 5,000 at which the
    controlled ``extrapolated_se`` is at most the plain estimator's at
    m = 100,000, with the same seed, on the exact Brownian bridge and on
    two-level RR (K = 4), RR (K = 10) and block RR (K = 20) calibration
    sets, where the controls cut the variance 2.2 to 3.3 fold.  The default
    ladder h = 1/25, 1/50, 1/100 ends on a grid of N = 101 points.  Each
    draw costs O(N) normals and an O(N^2) product; at N = 101 and
    m = 50,000 the normals took 25 of 46 ms and the fit under 1 ms (median
    of 7 runs on 2 vCPUs).  On the exact Brownian-bridge covariance the
    extrapolate barely moves with N: it lies within 0.001 of
    sqrt(pi/2) log 2, the exact supremum, at N = 101 as at N = 1601.  Where
    the scores bunch near 1, as trained APS scores do, the uniform grid is
    too coarse and the default underestimates the supremum (ROADMAP item 1).
    A finer ladder can be passed explicitly.
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
    sups, controls, _, eigenvalues = _ladder_sups(sigma, strides, m, seed)
    means, ses = _mean_se(sups)
    extrapolated, extrapolated_se, beta, factor = _controlled_mean_se(
        weights @ sups, controls
    )
    diagnostics = {
        "h_levels": hs,
        "M": int(m),
        "raw": [
            {"h": h, "estimate": float(e), "se": float(se)}
            for h, e, se in zip(hs, means, ses)
        ],
        "extrapolated": float(extrapolated),
        "extrapolated_se": float(extrapolated_se),
        "control_coefficients": beta.tolist(),
        "variance_factor": float(factor),
        "covariance_eigenvalues": list(eigenvalues),
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

    The smaller branch optimum of the same two branches as :func:`delta_fs`,
    with absolute values on the beta coefficients and the analytic envelope
    sqrt(pi/(2 n)) as the linear weight; the bound is only valid with the
    envelope, not with c(n).  A W of block form loads no SciPy, any other W
    solves one sparse LP, for Massart (see :func:`_branch_minimizers`).
    """
    scale = cn_envelope(n)
    w = _checked_w(n, k, w)
    best = min(
        _fs_values(n, w, scale, beta, absolute=True)[name]
        for name, beta in _branch_minimizers(n, w, scale, abs_objective=True).items()
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
    _check_n(n)
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
    _conditioned(mix, SingularM, "mixing matrix M")
    v = np.linalg.inv(mix)
    bracket = float(np.max(rho / rho_tilde * np.abs(v).sum(axis=1)))
    d_n = n**0.25 * delta_ss_n
    phi_n = 3.0 * delta_ss_n + 2.0 / n + n**-0.25 + (bracket - 1.0) / (n + 1.0)
    threshold = -alpha + delta_n + math.sqrt(math.log(2.0 * n) / (2.0 * n)) + d_n
    return {"d_n": d_n, "phi_n": phi_n, "assumption_a6_threshold": threshold}
