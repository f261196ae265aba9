"""Reference implementations and validation oracles used only by the tests.

Each oracle recomputes its quantity from the defining formula with a
different algorithm than the library (boolean-matrix counting instead of a
cumulative sum over sorted scores, Gauss-Jordan instead of LU, scalar
enumeration instead of vectorized masks), so agreement is evidence, not
tautology.
"""

from __future__ import annotations

import csv
import inspect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize, sparse, special

from noisycal import ContaminationSpec, EmptyClass, Family, FileFormatError, correction


def gauss_inverse(t: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination with partial pivoting, pure Python loops."""
    k = t.shape[0]
    a = [[float(t[i, j]) for j in range(k)] + [1.0 if j == i else 0.0 for j in range(k)] for i in range(k)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for row in range(k):
            if row != col and a[row][col] != 0.0:
                factor = a[row][col]
                a[row] = [v - factor * p for v, p in zip(a[row], a[col])]
    return np.array([row[k:] for row in a])


@dataclass(frozen=True)
class TwoLevelDerived:
    """Intermediate constants of the two-level closed-form inverse."""

    f: float
    g: float
    e: float
    p: float
    h: float


def two_level_constants(eps: float, nu: float) -> TwoLevelDerived:
    """Derived constants (f, g, e, p, h) of the two-level model, as in the paper.

    For eps in [0, 1) and nu in [0, 1] these satisfy h >= 0 and
    p >= eps/(1-eps) >= h, hence |h - p| <= 2*eps/(1-eps).
    """
    f = eps * (1.0 + nu)
    g = eps * (1.0 - nu)
    e = (eps * (1.0 + nu) - eps**2 * (1.0 - nu)) / (1.0 - eps + f / 2.0)
    p = (1.0 / (1.0 - eps)) * e / (1.0 - eps + e / 2.0)
    h = (
        (g / (1.0 - eps) ** 2)
        * (1.0 - f / (2.0 * (1.0 - eps + f / 2.0)))
        * (1.0 - e / (2.0 * (1.0 - eps + e / 2.0)))
    )
    return TwoLevelDerived(f=f, g=g, e=e, p=p, h=h)


def reference_family_matrix(spec) -> np.ndarray:
    """T of a parametric family, one formula per family."""
    k, eps = spec.k, spec.eps
    if spec.family is Family.RANDOMIZED_RESPONSE:
        return (1.0 - eps) * np.eye(k) + (eps / k) * np.ones((k, k))
    if spec.family is Family.BLOCK_RR:
        m = k // spec.b
        block = np.kron(np.eye(spec.b), np.ones((m, m)))
        return (1.0 - eps) * np.eye(k) + (eps / m) * block
    half = k // 2
    ones = np.ones((half, half))
    diag = (1.0 - eps) * np.eye(half) + (eps / k) * (1.0 + spec.nu) * ones
    off = (eps / k) * (1.0 - spec.nu) * ones
    return np.block([[diag, off], [off, diag]])


def reference_family_inverse(spec) -> np.ndarray:
    """W = T^{-1} of a parametric family, one formula per family.

    RR: I/(1-eps) - eps/(K(1-eps)) J; block RR: I/(1-eps) - eps/(m(1-eps)) B;
    two-level: assembled from the (p, h) constants of two_level_constants.
    """
    k, eps = spec.k, spec.eps
    a = 1.0 / (1.0 - eps)
    if spec.family is Family.RANDOMIZED_RESPONSE:
        return a * np.eye(k) - (eps * a / k) * np.ones((k, k))
    if spec.family is Family.BLOCK_RR:
        m = k // spec.b
        block = np.kron(np.eye(spec.b), np.ones((m, m)))
        return a * np.eye(k) - (eps * a / m) * block
    half = k // 2
    ones = np.ones((half, half))
    c = two_level_constants(eps, spec.nu)
    diag = a * np.eye(half) - (c.p / k) * ones
    off = -(c.h / k) * ones
    return np.block([[diag, off], [off, diag]])


def reference_beta_prime(spec) -> tuple[float, float]:
    """(beta'_0, beta'_k) of the analytic candidate, one formula per family.

    Blocks of one label (block RR with b = K, K = 1, and the two-level model
    at K = 2) leave W one off-diagonal value, so W reads as one block of K
    labels: beta'_0 is W's diagonal less that value, beta'_k K times it.
    """
    eps, k = spec.eps, spec.k
    m = {Family.BLOCK_RR: k // (spec.b or 1), Family.TWO_LEVEL_RR: k // 2}.get(spec.family, k)
    if m == 1:
        w = reference_family_inverse(spec)
        off = w[0, 1] if k > 1 else 0.0
        return w[0, 0] - off, k * off
    if spec.family is Family.RANDOMIZED_RESPONSE:
        beta = -eps / (1.0 - eps)
    elif spec.family is Family.BLOCK_RR:
        beta = -spec.b * eps / (1.0 - eps)
    else:
        beta = -two_level_constants(eps, spec.nu).p
    return 1.0 / (1.0 - eps), beta


def family_grid() -> list:
    """Parametric specs over every family, K up to 200, every divisor b of K,
    nu in {0, 0.2, 0.8, 1} and eps up to 0.95; blocks of one label (block RR
    with b = K, two-level with K = 2) included."""
    specs = []
    for k in (1, 2, 4, 6, 20, 60, 200):
        for eps in (0.0, 0.1, 0.6, 0.95):
            specs.append(ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps))
            specs += [
                ContaminationSpec(family=Family.BLOCK_RR, k=k, eps=eps, b=b)
                for b in range(1, k + 1)
                if k % b == 0
            ]
            if k % 2 == 0:
                specs += [
                    ContaminationSpec(family=Family.TWO_LEVEL_RR, k=k, eps=eps, nu=nu)
                    for nu in (0.0, 0.2, 0.8, 1.0)
                ]
    return specs


def ladder_spec(family: str, k: int, one_minus_eps: float) -> ContaminationSpec:
    """A family's spec at 1 - eps on the near-singular ladders: block RR
    with b = 2 blocks, two-level RR with nu = 0.3."""
    extra = {"block_rr": {"b": 2}, "two_level_rr": {"nu": 0.3}}.get(family, {})
    return ContaminationSpec(family=family, k=k, eps=1.0 - one_minus_eps, **extra)


# 1 - eps along {3, 1} x 10^-j, j = 1..14: the channel grows worse conditioned
NEAR_ONE = [a * 10.0**-j for j in range(1, 15) for a in (3.0, 1.0)]


def exact_family_condition(spec) -> Fraction | float:
    """The exact 2-norm condition number of a family's T as stored in floats.

    The stored T is symmetric, with d on its diagonal and s within and o
    across blocks of m labels, so the condition number is max/min of the
    moduli of its eigenvalues: l1 = d - s on contrasts within a block (m >
    1), l2 = l1 + m (s - o) on contrasts between blocks (K > m) and the row
    sum on constants, all in rationals here; inf when T is singular.
    """
    t = reference_family_matrix(spec)
    k = spec.k
    m = {Family.BLOCK_RR: k // (spec.b or 1), Family.TWO_LEVEL_RR: k // 2}.get(spec.family, k)
    d, s, o = (Fraction(float(x)) for x in (t[0, 0], t[0, m - 1], t[0, k - 1]))
    l1 = d - s
    moduli = [abs(sum(Fraction(float(x)) for x in t[0]))]
    moduli += [abs(l1)] * (m > 1) + [abs(l1 + m * (s - o))] * (k > m)
    return math.inf if min(moduli) == 0 else max(moduli) / min(moduli)


def skewed_channel(k: int, eps: float) -> np.ndarray:
    """(1 - eps) q 1^T + eps P, q proportional to 1..K and P the cyclic
    shift: column-stochastic, with a condition number of about 1.2/eps to
    1.4/eps, and never of block form, as its diagonal is not constant."""
    q = np.arange(1.0, k + 1.0) / (k * (k + 1) / 2)
    return (1.0 - eps) * np.outer(q, np.ones(k)) + eps * np.roll(np.eye(k), 1, axis=0)


# eps of skewed_channel along {3, 1} x 10^-j, j = 2..14: condition numbers
# from ~40 to ~1.3e14, none within 15% of the limit 1e12
SKEWED_EPS = [a * 10.0**-j for j in range(2, 15) for a in (3.0, 1.0)]


def spy_svd(monkeypatch) -> list:
    """Record the shape of every matrix handed to ``np.linalg.svd``, also by
    ``np.linalg.cond``, which looks svd up in the globals of its own module
    (``numpy.linalg.linalg`` on NumPy 1, ``numpy.linalg._linalg`` on 2)."""
    real, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.cond).__globals__, "svd", spy)
    return calls


def reference_noisy_labels(true_labels: np.ndarray, t: np.ndarray, seed: int) -> np.ndarray:
    """Inverse-CDF sampling on a K x n matrix of per-sample column CDFs."""
    u = np.random.default_rng(seed).random(true_labels.size)
    cdf = np.cumsum(t[:, true_labels], axis=0)
    return np.minimum((cdf <= u).sum(axis=0), t.shape[0] - 1).astype(np.int64)


def power_exponents(k: int) -> np.ndarray:
    """The exponents a_y of the power score model, evenly spaced on [0.15, 0.4]."""
    return np.linspace(0.15, 0.4, k)


def power_scores(
    k: int, n: int, seed: int, rho: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(n x K scores, true labels) of a score model whose clean coverage is
    known exactly: labels drawn from the class frequencies ``rho`` (uniform
    on the K classes when None), a row's own score U^(1/a_y), whose CDF is
    t^(a_y), and its other K - 1 scores U(0, 1)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, size=n) if rho is None else rng.choice(k, size=n, p=rho)
    scores = rng.random((n, k))
    scores[np.arange(n), y] = rng.random(n) ** (1.0 / power_exponents(k)[y])
    return scores, y


def power_coverage(tau: float, k: int, rho: np.ndarray | None = None) -> float:
    """The exact clean coverage of the sets {y : s_y <= tau} under
    ``power_scores``: sum_y rho_y tau^(a_y), rho uniform when None."""
    return float(np.average(tau ** power_exponents(k), weights=rho))


def brute_aps(p: np.ndarray) -> np.ndarray:
    """s(k) = sum of probabilities ranked at or above k (ties by index)."""
    k = p.shape[0]
    out = np.empty(k)
    for i in range(k):
        total = 0.0
        for j in range(k):
            if p[j] > p[i] or (p[j] == p[i] and j <= i):
                total += p[j]
        out[i] = total
    return out


def brute_delta_hat(scores: np.ndarray, labels: np.ndarray, w: np.ndarray):
    """Inflation curve by boolean-matrix counting; l outer, k inner."""
    n, k_classes = scores.shape
    own = scores[np.arange(n), labels]
    order = np.sort(own)
    values = np.zeros(n)
    for l in range(k_classes):
        mask = labels == l
        nl = int(mask.sum())
        if nl == 0:
            raise ValueError(f"class {l} empty")
        rho = nl / n
        col_block = scores[mask]
        for k in range(k_classes):
            counts = (col_block[:, k][None, :] <= order[:, None]).sum(axis=1)
            values += w[k, l] * rho * (counts / nl)
    values -= (own[None, :] <= order[:, None]).sum(axis=1) / n
    return order, values


def exact_delta_hat(scores: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Delta_hat at the sorted own scores in exact rational arithmetic.

    Every float is a dyadic Fraction, so the signed weights
    W[k, Y~_i] - 1{k = Y~_i} are exact integers over W's largest
    denominator.  They are totalled per distinct pooled score and summed in
    ascending score order; Delta_hat at an own score is the sum at the end of
    its tie group over n, rounded once.
    """
    n = scores.shape[0]
    ratios = {x: Fraction(x) for x in set(w.ravel().tolist())}
    den = max(r.denominator for r in ratios.values())
    num = {x: r.numerator * (den // r.denominator) for x, r in ratios.items()}
    mass = {}
    for row, y in zip(scores.tolist(), labels.tolist()):
        for j, (s, wjy) in enumerate(zip(row, w[:, y].tolist())):
            mass[s] = mass.get(s, 0) + num[wjy] - den * (j == y)
    at_score, total = {}, 0
    for s in sorted(mass):
        total += mass[s]
        at_score[s] = total
    own = np.sort(scores[np.arange(n), labels])
    return np.array([float(Fraction(at_score[s], den * n)) for s in own.tolist()])


def brute_standard_index(n: int, alpha: float) -> int:
    return math.ceil((1 + n) * (1 - Fraction(alpha)))


def brute_adaptive(order: np.ndarray, values: np.ndarray, alpha: float, delta: float):
    """Enumerate the index-set inequality; returns (i_hat, tau, members)."""
    n = order.shape[0]
    members = [
        i for i in range(1, n + 1) if i / n >= 1.0 - alpha - values[i - 1] + delta
    ]
    if not members:
        return None, 1.0, members
    i_hat = min(members)
    return i_hat, float(order[i_hat - 1]), members


def brute_optimistic(order: np.ndarray, values: np.ndarray, alpha: float, delta: float):
    n = order.shape[0]
    members = []
    for i in range(1, n + 1):
        inner = max(values[i - 1] - delta, -(1.0 - alpha) / n)
        if i / n >= 1.0 - alpha - inner:
            members.append(i)
    if not members:
        return None, 1.0, members
    i_hat = min(members)
    return i_hat, float(order[i_hat - 1]), members


def brute_covariance(scores: np.ndarray, labels: np.ndarray, w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Plug-in covariance from the full n x N matrix of f_t values."""
    n, k_classes = scores.shape
    big = np.zeros((n, grid.shape[0]))
    for i in range(n):
        for j, t in enumerate(grid):
            big[i, j] = sum(
                w[k, labels[i]] * (scores[i, k] <= t) for k in range(k_classes)
            )
    e1 = big.mean(axis=0)
    e2 = big.T @ big / n
    return e2 - np.outer(e1, e1)


def brute_psi(
    scores: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    pop_rho: np.ndarray,
    pop_cdf,
    t: float,
) -> float:
    """psi_hat(t) with population CDFs supplied as a callable (l, k, t)."""
    n, k_classes = scores.shape
    total = 0.0
    for l in range(k_classes):
        mask = labels == l
        nl = int(mask.sum())
        rho_hat = nl / n
        for k in range(k_classes):
            f_hat = float((scores[mask, k] <= t).sum()) / nl if nl else 0.0
            total += w[k, l] * (rho_hat * f_hat - pop_rho[l] * pop_cdf(l, k, t))
    return total


class ClassCdfs:
    """Per-class empirical CDFs F_hat_l^k by binary search in sorted columns.

    Built from a CalibrationSet; ``rho_hat`` holds the class frequencies.
    Querying a class with no samples raises EmptyClass.
    """

    def __init__(self, cal):
        self.columns = [
            np.sort(cal.scores[cal.noisy_labels == label], axis=0)
            for label in range(cal.k)
        ]
        self.rho_hat = np.bincount(cal.noisy_labels, minlength=cal.k) / cal.n
        self.sorted_own = np.sort(cal.own_score)

    @property
    def k(self) -> int:
        return len(self.columns)

    def class_cdf(self, label: int, k: int, t):
        col = self.columns[label][:, k]
        if col.size == 0:
            raise EmptyClass(label)
        return np.searchsorted(col, t, side="right") / col.size


def psi_values(cdfs: ClassCdfs, w, population_cdfs: ClassCdfs, t) -> np.ndarray:
    """The centered process psi_hat at the given points.

    psi_hat(t) = sum_k sum_l W[k, l] (rho_hat[l] F_hat_l^k(t)
                                      - rho_tilde[l] F_tilde_l^k(t)),
    with the population pieces taken from ClassCdfs of a large fresh sample.
    """
    w = np.asarray(getattr(w, "W", w), dtype=np.float64)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    total = np.zeros(t.shape[0])
    for l in range(cdfs.k):
        for kk in range(cdfs.k):
            total += w[kk, l] * (
                cdfs.rho_hat[l] * cdfs.class_cdf(l, kk, t)
                - population_cdfs.rho_hat[l] * population_cdfs.class_cdf(l, kk, t)
            )
    return total


def psi_sup_oracle(cal, w, population_cdfs: ClassCdfs) -> float:
    """Supremum of psi_hat over {0} + own-score order statistics + {1}."""
    cdfs = ClassCdfs(cal)
    points = np.concatenate(([0.0], cdfs.sorted_own, [1.0]))
    return float(np.max(psi_values(cdfs, w, population_cdfs, points)))


def brute_b_term(k: int, n: int, beta0: float, betas: np.ndarray, w: np.ndarray):
    omega = w.copy().astype(float)
    for kk in range(k):
        for ll in range(k):
            omega[kk, ll] -= (beta0 if kk == ll else 0.0) + betas[kk] / k
    massart = max(sum(abs(omega[kk, ll]) for kk in range(k)) for ll in range(k))
    massart *= math.sqrt(math.log(k * n + 1))
    if k >= 2:
        logk = math.log(k)
        chaining = (
            24.0
            * max(abs(omega[kk, ll]) for kk in range(k) for ll in range(k))
            * (2 * logk + 1)
            / (2 * logk - 1)
            * math.sqrt(2 * k * logk)
        )
    else:
        chaining = math.inf
    return 2.0 * min(massart, chaining), omega


def brute_evaluate(sets, labels):
    """Coverage and mean set size of a membership matrix, one row at a time."""
    hits = 0
    size = 0
    for row, y in zip(sets, labels):
        members = {k for k, inside in enumerate(row) if inside}
        size += len(members)
        if int(y) in members:
            hits += 1
    return hits / len(labels), size / len(labels)


def reference_probability_csv(path: str):
    """``read_probability_csv`` by ``csv.reader`` and ``float()``/``int()``.

    Parses the whole file cell by cell, with no fast path, and raises the
    reader's FileFormatError messages and line numbers.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise FileFormatError(f"{path} is not valid CSV: {exc}") from exc
    if not rows:
        raise FileFormatError(f"{path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if header[:1] not in (["p_1"], ["s_1"]):
        raise FileFormatError("header must start with p_1 or s_1", line=1)
    kind = header[0][0]
    k = 0
    while k < len(header) and header[k] == f"{kind}_{k + 1}":
        k += 1
    names = header[k:]
    if names not in ([], ["y_noisy"], ["y_true"], ["y_noisy", "y_true"]):
        raise FileFormatError(
            f"columns after {kind}_{k} must be [y_noisy][,y_true], got {names}", line=1
        )
    values = []
    labels = {name: [] for name in names}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FileFormatError(f"expected {len(header)} cells, got {len(row)}", line=line)
        parsed = []
        for cell in row[:k]:
            try:
                parsed.append(float(cell))
            except ValueError:
                raise FileFormatError(f"not a number: {cell!r}", line=line) from None
        values.append(parsed)
        for name, cell in zip(names, row[k:]):
            try:
                label = int(cell)
            except ValueError:
                raise FileFormatError(f"not an integer label: {cell!r}", line=line) from None
            if not 1 <= label <= k:
                raise FileFormatError(f"label {label} outside 1..{k}", line=line)
            labels[name].append(label - 1)
    if not values:
        raise FileFormatError(f"{path} has a header but no data rows")
    as_labels = {name: np.array(column, dtype=np.int64) for name, column in labels.items()}
    return (
        kind,
        np.array(values, dtype=np.float64).reshape(len(values), k),
        as_labels.get("y_noisy"),
        as_labels.get("y_true"),
    )


def reference_prediction_sets_csv(path: str, sets: np.ndarray, tau: float) -> None:
    """``write_prediction_sets_csv`` by one ``csv.writer`` row per set."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "tau", "set_size", "labels"])
        for i, row in enumerate(sets, start=1):
            labels = np.flatnonzero(row) + 1
            writer.writerow(
                [str(i), repr(float(tau)), str(labels.size), ";".join(map(str, labels))]
            )


def mc_c_of_n(n: int, m: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean and SE of max_i (i/n - U_(i)) over m replicates."""
    rng = np.random.default_rng(seed)
    ratio = np.arange(1, n + 1) / n
    # order statistics of n uniforms via normalized cumulative sums of n+1
    # standard exponentials (no sorting needed)
    batch = max(1, int(10_000_000 // (n + 1)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < m:
        b = min(batch, m - done)
        e = rng.standard_exponential((b, n + 1))
        np.cumsum(e, axis=1, out=e)
        u = e[:, :n] / e[:, n:]
        stat = np.max(ratio - u, axis=1)
        total += float(stat.sum())
        total_sq += float((stat * stat).sum())
        done += b
    mean = total / m
    var = max((total_sq - m * mean * mean) / (m - 1), 0.0) if m > 1 else 0.0
    return mean, math.sqrt(var / m)


def smirnov_mean(n: int) -> float:
    """E[D_n^+] as the integral over [0, 1] of its exact survival function.

    ``scipy.special.smirnov(n, x)`` is the Birnbaum-Tingey P(D_n^+ >= x).
    """
    value, _ = integrate.quad(
        lambda x: special.smirnov(n, x), 0.0, 1.0, limit=500, epsabs=0.0, epsrel=1e-12
    )
    return value


def multiplier_sup(
    scores: np.ndarray, labels: np.ndarray, w: np.ndarray, m: int, seed: int
) -> tuple[float, float]:
    """Mean and SE of sup over t in [0, 1] of |G(t)| for the multiplier process.

    G(t) = n^-1/2 sum_i xi_i (f_t(Z_i) - mean_j f_t(Z_j)) with xi_i iid
    N(0, 1) and f_t(Z_i) = sum_k W[k, Y~_i] 1{s_ik <= t} (Chernozhukov,
    Chetverikov & Kato 2013).  Given the data it is Gaussian with exactly the
    plug-in covariance that ``estimate_covariance`` evaluates on a grid.  It
    is a right-continuous step function of t that jumps only at the nK
    scores, so its supremum over [0, 1] is attained at the end of a tie group
    of the sorted scores (clipped to [0, 1]) and needs no grid.
    """
    n, k_classes = scores.shape
    s = np.clip(scores.ravel(), 0.0, 1.0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    weight = w.T[labels].ravel()[order]  # entry (i, k) carries W[k, Y~_i]
    rows = np.repeat(np.arange(n), k_classes)[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    f_mean = np.cumsum(weight)[ends] / n
    rng = np.random.default_rng(seed)
    batch = max(1, 2_000_000 // (n * k_classes))
    stat = np.empty(m)
    for start in range(0, m, batch):
        b = min(batch, m - start)
        xi = rng.standard_normal((b, n))
        path = np.cumsum(xi[:, rows] * weight, axis=1)[:, ends]
        g = path - xi.sum(axis=1, keepdims=True) * f_mean
        stat[start : start + b] = np.abs(g).max(axis=1) / math.sqrt(n)
    return float(stat.mean()), float(stat.std(ddof=1) / math.sqrt(m))


def ladder_normals(npts: int, m: int, seed: int) -> np.ndarray:
    """The N x m float32 normals the library's ladder sampler draws.

    ``correction._box_muller`` on one ``default_rng(seed)`` stream, slice
    by slice over the sampler's equal slices of at most ``_LADDER_DRAWS``
    draws, each an N x b block with a fresh scratch array; column i is
    draw i.
    """
    rng = np.random.default_rng(seed)
    slices = -(-m // correction._LADDER_DRAWS)
    edges = [m * i // slices for i in range(slices + 1)]
    z = np.empty((npts, m), dtype=np.float32)
    for start, stop in zip(edges, edges[1:]):
        block = np.empty((npts, stop - start), dtype=np.float32)
        correction._box_muller(rng, block, np.empty(block.size + block.size % 2, np.float32))
        z[:, start:stop] = block
    return z


def dense_ladder_sups(factor: np.ndarray, strides, m: int, seed: int) -> np.ndarray:
    """Per-replicate absolute suprema of x = F z on every strides[j]-th point.

    The float32 normals of ``ladder_normals``, multiplied all at once in
    float64 by the whole dense factor and reduced on each level separately.
    """
    x = np.abs(factor @ ladder_normals(factor.shape[0], m, seed).astype(np.float64))
    return np.stack([x[::stride].max(axis=0) for stride in strides])


def one_call_ladder_sups(sigma: np.ndarray, strides, m: int, seed: int):
    """The float32 ladder sampler with all m draws multiplied at once.

    Factors sigma as F = Q sqrt(max(Lambda, 0)) from its eigendecomposition
    Q Lambda Q^T (the zero factor for a sigma of nonpositive trace), takes
    the N x m float32 normals of ``ladder_normals`` and multiplies them by
    the float32 factor in one product, then reduces each level separately.
    Returns the float64 suprema per stride, the 2 x m float64 sums
    S1 = sum_j |x_j| and S2 = sum_j x_j^2 of each product column (not
    centred), the factor and sigma's extreme eigenvalues.
    """
    lam, q = np.linalg.eigh(sigma)
    if np.trace(sigma) > 0.0:
        factor = q * np.sqrt(np.maximum(lam, 0.0))
    else:
        factor = np.zeros_like(sigma)
    x = factor.astype(np.float32) @ ladder_normals(sigma.shape[0], m, seed)
    ax = np.abs(x)
    sums = np.stack(
        [ax.sum(axis=0, dtype=np.float64), (x * x).sum(axis=0, dtype=np.float64)]
    )
    sups = np.stack([ax[::stride].max(axis=0) for stride in strides])
    return sups.astype(np.float64), sums, factor, (float(lam[0]), float(lam[-1]))


def dense_branch_lp(
    k: int,
    w: np.ndarray,
    weight: float,
    z_coef: float,
    per_column: bool,
    abs_objective: bool,
):
    """One branch of the finite-sample bound as a dense LP, row by row.

    Minimizes weight * (beta0 + mean_k beta_k) + z_coef * z, with the betas
    replaced by their absolute values when ``abs_objective``, subject to
    |Omega[k, l]| <= A_kl with sum_k A_kl <= z for every column l
    (``per_column``, the Massart branch) or |Omega[k, l]| <= z (the chaining
    branch).  Variables: beta0, beta_1..K, [u0, u_1..K], [A_kl], z.  Solved
    by the HiGHS simplex; returns the scipy result, or raises ValueError when
    it does not reach an optimum.  O(K^4) memory, so only for small K.
    """
    nb = 1 + k
    nu = (1 + k) if abs_objective else 0
    na = k * k if per_column else 0
    nvars = nb + nu + na + 1
    i_u0 = nb
    i_a = nb + nu
    i_z = nvars - 1

    rows, rhs = [], []

    def omega_row(kk: int, ll: int, sign: float, aux_index: int) -> None:
        # sign * Omega[kk, ll] <= aux, with
        # Omega[kk, ll] = W[kk, ll] - beta0 * 1[kk = ll] - beta_kk / K
        row = np.zeros(nvars)
        if kk == ll:
            row[0] = -sign
        row[1 + kk] = -sign / k
        row[aux_index] = -1.0
        rows.append(row)
        rhs.append(-sign * w[kk, ll])

    for kk in range(k):
        for ll in range(k):
            aux = (i_a + kk * k + ll) if per_column else i_z
            omega_row(kk, ll, +1.0, aux)
            omega_row(kk, ll, -1.0, aux)
    if per_column:
        for ll in range(k):
            row = np.zeros(nvars)
            for kk in range(k):
                row[i_a + kk * k + ll] = 1.0
            row[i_z] = -1.0
            rows.append(row)
            rhs.append(0.0)
    if abs_objective:
        for j in range(1 + k):
            for sign in (+1.0, -1.0):
                row = np.zeros(nvars)
                row[j] = sign
                row[i_u0 + j] = -1.0
                rows.append(row)
                rhs.append(0.0)

    cost = np.zeros(nvars)
    first = i_u0 if abs_objective else 0
    cost[first] = weight
    cost[first + 1 : first + 1 + k] = weight / k
    cost[i_z] = z_coef
    # HiGHS's default feasibility tolerances, 1e-7, can leave the optimum
    # ~4e-7 relative high on a near-degenerate W, above the 1e-9 the tests ask
    res = optimize.linprog(
        cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(None, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise ValueError(f"dense LP did not reach an optimum: {res.message}")
    return res


def index_massart_lp(w: np.ndarray, weight: float, z_coef: float, abs_objective: bool):
    """(cost, A_ub, b_ub) of the Massart LP that ``correction._branch_lp``
    hands to HiGHS, built cell by cell from index arithmetic.

    Variables: beta0, beta_1..K, [u0, u_1..K], A_kl (cell c = kk K + ll), z.
    Rows 2c and 2c + 1 hold +Omega[kk, ll] <= A_c and -Omega[kk, ll] <= A_c,
    the next K rows every column sum of A at most z, and with |beta| the
    last 2 (K + 1) rows +-beta_j <= u_j.  A_ub is a canonical CSR array.
    """
    k = w.shape[0]
    nb = 1 + k
    nu = nb if abs_objective else 0
    nvars = nb + nu + k * k + 1
    i_a = nb + nu
    i_z = nvars - 1

    cell = np.repeat(np.arange(k * k), 2)
    kk, ll = np.divmod(cell, k)
    sign = np.tile([1.0, -1.0], k * k)
    row = np.arange(2 * k * k)
    on_diag = kk == ll
    a_cell, nrows = np.arange(k * k), 2 * k * k
    rows = [row, row, row[on_diag], nrows + a_cell % k, nrows + np.arange(k)]
    cols = [1 + kk, i_a + cell, np.zeros(int(on_diag.sum()), dtype=np.intp)]
    cols += [i_a + a_cell, np.full(k, i_z)]
    vals = [-sign / k, -np.ones(row.shape), -sign[on_diag], np.ones(k * k), -np.ones(k)]
    rhs = [-sign * w.ravel()[cell], np.zeros(k)]
    nrows += k
    if abs_objective:
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
    return cost, a_ub, np.concatenate(rhs)


def softmax_objective(weights: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Loss, gradient and probabilities of the regularized softmax objective.

    Mean cross-entropy plus 0.5 * l2 * ||W[:-1]||^2 for the (d+1) x K weights
    whose last row is the unpenalized bias, through ``special.log_softmax``.
    """
    n = x.shape[0]
    xb = np.hstack([x, np.ones((n, 1))])
    log_probs = special.log_softmax(xb @ weights, axis=1)
    probs = np.exp(log_probs)
    loss = -log_probs[np.arange(n), y].mean() + 0.5 * l2 * np.sum(weights[:-1] ** 2)
    residual = probs.copy()
    residual[np.arange(n), y] -= 1.0
    grad = xb.T @ residual / n
    grad[:-1] += l2 * weights[:-1]
    return float(loss), grad, probs


def brute_hessian(x: np.ndarray, probs: np.ndarray, l2: float) -> np.ndarray:
    """Hessian of ``softmax_objective`` at the weights that give ``probs``.

    sum_i (diag p_i - p_i p_i^T) kron x_i x_i^T / n over the rows x_i of
    [x, 1], one Kronecker product per row, parameters ordered class by class,
    plus l2 on the diagonal entry of every weight but the biases.  The
    diagonal of diag p - p p^T is formed as p (1 - p), which is exact to
    rounding even as p -> 1.
    """
    n = x.shape[0]
    xb = np.hstack([x, np.ones((n, 1))])
    m = xb.shape[1]
    hess = np.zeros((probs.shape[1] * m,) * 2)
    for p, row in zip(probs, xb):
        w = -np.outer(p, p)
        np.fill_diagonal(w, p * (1.0 - p))
        hess += np.kron(w, np.outer(row, row))
    hess /= n
    penalized = np.arange(hess.shape[0]) % m != m - 1
    hess[penalized, penalized] += l2
    return hess


def softmax_reference(x: np.ndarray, y: np.ndarray, l2: float, k: int) -> np.ndarray:
    """Weights minimizing ``softmax_objective`` by scipy's L-BFGS-B.

    The last class's bias (the last entry of W in row-major order) is pinned
    at zero, since a common shift of the biases leaves the objective
    unchanged.
    """
    shape = (x.shape[1] + 1, k)

    def fun(theta):
        loss, grad, _ = softmax_objective(np.append(theta, 0.0).reshape(shape), x, y, l2)
        return loss, grad.ravel()[:-1]

    result = optimize.minimize(
        fun,
        np.zeros(shape[0] * shape[1] - 1),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10_000},
    )
    return np.append(result.x, 0.0).reshape(shape)
