"""Tests for the finite-sample and asymptotic correction factors."""

import itertools
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import optimize as scipy_optimize
from scipy import sparse as scipy_sparse
from hypothesis import strategies as st

from noisycal import (
    BetaVector,
    CalibrationSet,
    CholeskyFailure,
    ContaminationSpec,
    CorrectionMethod,
    CorrectionReport,
    EmptyClass,
    Family,
    InvalidSpec,
    LadderMismatch,
    SingularM,
    SolverFailure,
    TransitionMatrix,
    adaptive_threshold,
    aps_scores,
    b_term,
    build_transition,
    c_of_n,
    closed_form_inverse,
    cn_envelope,
    correction,
    delta_asy,
    delta_fs,
    delta_fs_special,
    delta_star_star_bound,
    estimate_covariance,
    noise_model,
    omega_matrix,
    optimistic_threshold,
    standard_threshold,
    upper_bound_diagnostics,
)
from noisycal.cli import correction_report

from oracles import (
    brute_b_term,
    brute_covariance,
    dense_branch_lp,
    dense_ladder_sups,
    family_grid,
    index_massart_lp,
    mc_c_of_n,
    multiplier_sup,
    one_call_ladder_sups,
    reference_beta_prime,
    reference_family_inverse,
    smirnov_mean,
)


# ---------------------------------------------------------------------------
# c(n)
# ---------------------------------------------------------------------------


def test_c_of_n_n_equals_one_is_one_half():
    # max_i (i/n - U_(i)) with n = 1 is 1 - U, whose mean is 1/2
    assert c_of_n(1) == 0.5


def test_c_of_n_hand_values():
    # Q(2) = 1 + 1/2 and Q(3) = 1 + 2/3 + 2/9, and c(n) = Q(n) / (2n)
    assert c_of_n(2) == pytest.approx(3.0 / 8.0, rel=1e-15)
    assert c_of_n(3) == pytest.approx(17.0 / 54.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
def test_c_of_n_matches_smirnov_quadrature(n):
    assert c_of_n(n) == pytest.approx(smirnov_mean(n), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [7, 50])
def test_c_of_n_matches_monte_carlo_oracle(n):
    mean, se = mc_c_of_n(n, 100_000, seed=n)
    assert abs(c_of_n(n) - mean) <= 4.0 * se


def test_c_of_n_large_n_expansion():
    # c(n) = sqrt(pi / 8n) - 1/(6n) + O(n^-3/2)
    n = 1_000_000
    want = math.sqrt(math.pi / (8.0 * n)) - 1.0 / (6.0 * n)
    assert c_of_n(n) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_c_of_n_huge_n_is_fast_and_finite():
    start = time.perf_counter()
    value = c_of_n(10_000_000)
    elapsed = time.perf_counter() - start
    assert math.isfinite(value) and value > 0.0
    assert elapsed < 0.05


def _exact_c_of_n(n):
    # Q(n) = sum_k prod_{j<k} (1 - j/n), summed to k = sqrt(80 n)
    terms = np.cumprod(1.0 - np.arange(1, math.isqrt(80 * n) + 1) / n)
    return (1.0 + terms.sum()) / (2.0 * n)


def _series_c_of_n(n):
    # Ramanujan's series Q(n) ~ sqrt(pi n/2) - 1/3 + (1/12) sqrt(pi/(2n))
    # - 4/(135 n) + (1/288) sqrt(pi/(2n^3)), as written
    q = math.sqrt(math.pi * n / 2.0) - 1.0 / 3.0 + math.sqrt(math.pi / (2.0 * n)) / 12.0
    q += -4.0 / (135.0 * n) + math.sqrt(math.pi / (2.0 * n**3)) / 288.0
    return q / (2.0 * n)


@pytest.mark.parametrize("n", [10**6, 10**6 + 1])
def test_c_of_n_sum_and_series_agree_at_the_switch(n):
    # c_of_n sums Q(n) up to 10^6 and takes the series above
    assert c_of_n(n) == pytest.approx(_exact_c_of_n(n), rel=2e-15, abs=0.0)
    assert c_of_n(n) == pytest.approx(_series_c_of_n(n), rel=2e-15, abs=0.0)


def test_c_of_n_astronomical_n_is_finite():
    # the sum's arrays of sqrt(80 n) entries asked for 63.6 PiB here
    n = 10**30
    value = c_of_n(n)
    assert math.isfinite(value) and 0.0 < value < cn_envelope(n)
    assert value == pytest.approx(math.sqrt(math.pi / (8.0 * n)), rel=1e-14)


N_MAX = 10**300


def _calls_of_n():
    """Each public entry point that takes n, as a call of n alone, on block
    RR at K = 4."""
    spec = ContaminationSpec(family="block_rr", k=4, eps=0.2, b=2)
    tm = build_transition(spec)
    cn, rho = c_of_n(N_MAX), np.full(4, 0.25)
    beta = BetaVector(beta0=1.0, betas=np.zeros(4))

    def diagnostics(n):
        values = upper_bound_diagnostics(n, 4, tm, rho, rho, cn, cn)
        return min(values["d_n"], values["phi_n"])

    return {
        "c_of_n": c_of_n,
        "cn_envelope": cn_envelope,
        "b_term": lambda n: b_term(4, n, beta, tm)[0],
        "delta_fs": lambda n: delta_fs(n, 4, tm, cn).value,
        "delta_fs_special": lambda n: delta_fs_special(spec, n, cn).value,
        "delta_star_star_bound": lambda n: delta_star_star_bound(n, 4, tm),
        "upper_bound_diagnostics": diagnostics,
        "correction_report": lambda n: correction_report(spec, n, "cn").value,
    }


@pytest.mark.parametrize("name", list(_calls_of_n()))
def test_every_entry_point_refuses_n_above_the_bound(name):
    # at n = 10**308, 2n overflowed: c(n) read -0.0 and its envelope 0.0; from
    # 10**309 sqrt(n) raised a bare OverflowError
    call = _calls_of_n()[name]
    value = call(N_MAX)
    assert math.isfinite(value) and value > 0.0
    for n in (N_MAX + 1, 10**308, 10**309, 10**400):
        with pytest.raises(InvalidSpec, match=rf"^n must be at most 10\*\*300, got {n}$"):
            call(n)


def test_c_of_n_below_envelope():
    for n in (1, 10, 100, 1000):
        assert c_of_n(n) <= cn_envelope(n)


def test_c_of_n_decreases_with_n():
    assert c_of_n(1000) < c_of_n(100)


def test_c_of_n_deterministic():
    a = c_of_n(50)
    assert type(a) is float and a == c_of_n(50)


@given(st.integers(min_value=1, max_value=10_000_000))
def test_c_of_n_strictly_decreasing_property(n):
    assert c_of_n(n + 1) < c_of_n(n)


@given(st.integers(min_value=1, max_value=10_000_000))
def test_c_of_n_below_envelope_property(n):
    assert c_of_n(n) <= cn_envelope(n)


@given(st.integers(min_value=1, max_value=100_000))
def test_sqrt_n_c_of_n_increases_toward_limit_property(n):
    # sqrt(n) c(n) = sqrt(pi/8) - 1/(6 sqrt(n)) + ...: increasing, below the limit
    lo = math.sqrt(n) * c_of_n(n)
    hi = math.sqrt(n + 1) * c_of_n(n + 1)
    assert lo < hi < math.sqrt(math.pi / 8.0)


def test_cn_envelope_formula():
    assert cn_envelope(100) == math.sqrt(math.pi / 200.0)
    assert cn_envelope(1) == math.sqrt(math.pi / 2.0)


def test_c_of_n_rejects_bad_arguments():
    with pytest.raises(InvalidSpec):
        c_of_n(0)
    with pytest.raises(InvalidSpec):
        c_of_n(-10)


_RR4 = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: c_of_n(n),
        lambda n: cn_envelope(n),
        lambda n: b_term(4, n, BetaVector(beta0=1.0, betas=np.zeros(4)), np.eye(4)),
        lambda n: delta_fs(n, 4, closed_form_inverse(_RR4), 0.05),
        lambda n: delta_fs_special(_RR4, n, 0.05),
        lambda n: delta_star_star_bound(n, 4, closed_form_inverse(_RR4)),
        lambda n: upper_bound_diagnostics(
            n, 2, np.eye(2), [0.5, 0.5], [0.5, 0.5], 0.1, 0.1
        ),
    ],
    ids=[
        "c_of_n",
        "cn_envelope",
        "b_term",
        "delta_fs",
        "delta_fs_special",
        "delta_star_star_bound",
        "upper_bound_diagnostics",
    ],
)
@pytest.mark.parametrize("n", [2.5, 100.0, True])
def test_n_must_be_an_integer(call, n):
    # a float n used to pass the n >= 1 check: c_of_n(2.5) returned c(2)
    # and c_of_n(True) returned c(1)
    with pytest.raises(InvalidSpec, match="n must be an integer"):
        call(n)


# ---------------------------------------------------------------------------
# Omega and the deviation term B
# ---------------------------------------------------------------------------


def wbar(beta: BetaVector, k: int) -> np.ndarray:
    return beta.beta0 * np.eye(k) + beta.betas[:, None] / k


def test_omega_zero_when_w_matches_beta():
    k = 4
    # dyadic entries so Wbar reconstruction cancels exactly in floats
    beta = BetaVector(beta0=1.25, betas=np.array([-0.25, 0.5, 0.0, -0.5]))
    w = wbar(beta, k)
    assert np.all(omega_matrix(w, beta) == 0.0)
    b, branch = b_term(k, 100, beta, w)
    assert b == 0.0
    assert branch == "massart"


def test_b_term_matches_plain_formulas():
    rng = np.random.default_rng(12)
    for k in (2, 4, 7):
        w = rng.normal(size=(k, k))
        beta = BetaVector(beta0=rng.normal(), betas=rng.normal(size=k))
        got, _ = b_term(k, 50, beta, w)
        want, omega = brute_b_term(k, 50, beta.beta0, beta.betas, w)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.allclose(omega_matrix(w, beta), omega, atol=1e-15)


def test_b_term_k_equals_one_uses_massart_alone():
    # the chaining constant is undefined at K = 1 (2 log K - 1 < 0)
    beta = BetaVector(beta0=0.0, betas=np.zeros(1))
    w = np.array([[0.7]])
    b, branch = b_term(1, 25, beta, w)
    assert branch == "massart"
    assert b == pytest.approx(2.0 * 0.7 * math.sqrt(math.log(26.0)), abs=1e-12)


def test_b_term_linear_in_omega():
    k = 3
    rng = np.random.default_rng(5)
    beta = BetaVector(beta0=rng.normal(), betas=rng.normal(size=k))
    w = rng.normal(size=(k, k))
    base = wbar(beta, k)
    w2 = base + 2.0 * (w - base)  # doubles Omega entrywise
    b1, _ = b_term(k, 80, beta, w)
    b2, _ = b_term(k, 80, beta, w2)
    assert b2 == pytest.approx(2.0 * b1, rel=1e-12)


def test_b_term_rejects_mismatched_beta():
    with pytest.raises(InvalidSpec):
        b_term(3, 10, BetaVector(beta0=1.0, betas=np.zeros(2)), np.eye(3))
    with pytest.raises(InvalidSpec):
        b_term(0, 10, BetaVector(beta0=1.0, betas=np.zeros(1)), np.eye(1))
    # a k that is not W's size was taken for K in the constants: (0.0, "massart")
    with pytest.raises(InvalidSpec, match="shape"):
        b_term(3, 100, BetaVector(beta0=1.0, betas=np.zeros(2)), np.eye(2))


# ---------------------------------------------------------------------------
# finite-sample correction
# ---------------------------------------------------------------------------


def test_delta_fs_randomized_response_attains_cn():
    # W for randomized response lies exactly on the Omega = 0 manifold, so
    # the optimum is c(n) with a vanishing deviation term
    cn = 0.06
    for eps in (0.0, 0.1, 0.2):
        spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=eps)
        w = closed_form_inverse(spec).W
        rep = delta_fs(400, 4, w, cn)
        assert rep.value == pytest.approx(cn, abs=1e-6)
        b, _ = b_term(4, 400, rep.beta_star, w)
        assert b <= 1e-10
        assert rep.method is CorrectionMethod.FINITE_SAMPLE


def test_delta_fs_certificate_matches_reported_value():
    # reported value must equal the full objective at the returned beta
    cn = 0.05
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.2, b=2)
    w = closed_form_inverse(spec).W
    rep = delta_fs(900, 4, w, cn)
    b, branch = b_term(4, 900, rep.beta_star, w)
    objective = cn * (rep.beta_star.beta0 + float(np.mean(rep.beta_star.betas)))
    objective += b / math.sqrt(900.0)
    assert rep.value == pytest.approx(objective, abs=1e-9)
    assert rep.branch == branch


def test_delta_fs_never_above_analytic_candidate():
    cn = 0.04
    for spec in (
        ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.1, b=2),
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.1, nu=0.8),
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=8, eps=0.2, nu=0.2),
    ):
        w = closed_form_inverse(spec).W
        lp = delta_fs(1000, spec.k, w, cn)
        candidate = delta_fs_special(spec, 1000, cn)
        assert lp.value <= candidate.value + 1e-9


def test_delta_fs_identity_gives_cn():
    rep = delta_fs(250, 3, np.eye(3), 0.08)
    assert rep.value == pytest.approx(0.08, abs=1e-6)


def test_delta_fs_validation():
    with pytest.raises(InvalidSpec):
        delta_fs(100, 3, np.eye(2), 0.1)
    with pytest.raises(InvalidSpec, match="shape"):
        delta_star_star_bound(100, 3, np.eye(2))
    with pytest.raises(InvalidSpec):
        delta_fs(0, 2, np.eye(2), 0.1)
    with pytest.raises(InvalidSpec):
        delta_fs(100, 2, np.eye(2), 0.0)
    with pytest.raises(InvalidSpec):
        delta_fs(100, 2, np.eye(2), math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", [delta_fs, delta_star_star_bound])
def test_finite_sample_routes_refuse_non_finite_w(route, bad):
    # NaN reached the chaining closed form and surfaced as "beta entries must
    # be finite"; the LP of delta_star_star_bound raised SciPy's ValueError
    w = np.array([[bad, 0.0], [0.0, 1.0]])
    args = (100, 2, w, 0.1) if route is delta_fs else (100, 2, w)
    with pytest.raises(InvalidSpec, match="W entries must be finite"):
        route(*args)


def test_delta_fs_special_randomized_response_is_cn():
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=0.1)
    rep = delta_fs_special(spec, 500, 0.055)
    assert rep.value == pytest.approx(0.055, abs=1e-12)
    assert rep.beta_star.beta0 == pytest.approx(1.0 / 0.9, abs=1e-15)


def test_delta_fs_special_block_hand_formula():
    # beta'_k = -b eps/(1 - eps): value is (1 - b eps)/(1 - eps) c_n + B/sqrt(n)
    k, eps, b, n, cn = 4, 0.1, 2, 1000, 0.04
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=k, eps=eps, b=b)
    w = closed_form_inverse(spec).W
    betas = np.full(k, -b * eps / (1.0 - eps))
    bval, _ = brute_b_term(k, n, 1.0 / (1.0 - eps), betas, w)
    want = cn * (1.0 - b * eps) / (1.0 - eps) + bval / math.sqrt(n)
    rep = delta_fs_special(spec, n, cn)
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_delta_fs_special_two_level_nu_zero_reduces_to_rr():
    rr = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=0.15)
    tl = ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.15, nu=0.0)
    a = delta_fs_special(rr, 700, 0.05)
    b = delta_fs_special(tl, 700, 0.05)
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_delta_fs_special_matches_per_family_beta_over_grid():
    # beta' from W's block form against the per-family formulas, evaluated on
    # the per-family W; blocks of one label read as one block of K labels,
    # where Omega vanishes and the value is c(n)
    n = 1000
    cn = c_of_n(n)
    for spec in family_grid():
        rep = delta_fs_special(spec, n, cn)
        beta0, beta = reference_beta_prime(spec)
        assert rep.beta_star.beta0 == pytest.approx(beta0, rel=1e-12), spec
        assert np.allclose(rep.beta_star.betas, beta, rtol=1e-12, atol=0.0), spec
        ref = BetaVector(beta0=beta0, betas=np.full(spec.k, beta))
        bval, _ = b_term(spec.k, n, ref, reference_family_inverse(spec))
        want = max(cn * (beta0 + beta) + bval / math.sqrt(n), 0.0)
        assert rep.value == pytest.approx(want, rel=1e-12), spec


# ---------------------------------------------------------------------------
# finite-sample solvers against the dense-LP oracle
# ---------------------------------------------------------------------------


def _random_dense_w(k, seed):
    rng = np.random.default_rng(seed)
    t = 0.7 * np.eye(k) + 0.3 * rng.dirichlet(np.full(k, 0.3), size=k)
    return np.linalg.inv(t)


def _family_w(family, k, **kwargs):
    spec = ContaminationSpec(family=family, k=k, eps=0.2, **kwargs)
    return closed_form_inverse(spec).W


FS_CASES = {
    **{f"dense-k{k}": (k, 500 if k % 2 else 5000, _random_dense_w(k, 100 + k))
       for k in (2, 3, 5, 8, 13, 20, 40)},
    **{f"rr-k{k}": (k, 1000, _family_w(Family.RANDOMIZED_RESPONSE, k)) for k in (2, 12, 40)},
    **{f"two-level-k{k}": (k, 2000, _family_w(Family.TWO_LEVEL_RR, k, nu=0.4))
       for k in (6, 40)},
    **{f"block-k{k}": (k, 5000, _family_w(Family.BLOCK_RR, k, b=b))
       for k, b in ((4, 2), (12, 3), (40, 5))},
}


def _oracle_bound(n, k, w, weight, absolute):
    """Best full objective over the dense-LP minimizers of both branches."""
    scale = 2.0 / math.sqrt(n)
    branches = [(scale * math.sqrt(math.log(k * n + 1.0)), True)]
    if k >= 2:
        log_k = math.log(k)
        chaining = 24.0 * (2 * log_k + 1) / (2 * log_k - 1) * math.sqrt(2 * k * log_k)
        branches.append((scale * chaining, False))
    best = math.inf
    for z_coef, per_column in branches:
        x = dense_branch_lp(k, w, weight, z_coef, per_column, absolute).x
        beta0, betas = x[0], x[1 : 1 + k]
        b, _ = brute_b_term(k, n, beta0, betas, w)
        if absolute:
            linear = abs(beta0) + float(np.mean(np.abs(betas)))
        else:
            linear = beta0 + float(np.mean(betas))
        best = min(best, weight * linear + b / math.sqrt(n))
    return best


@pytest.mark.parametrize("case", list(FS_CASES))
def test_delta_fs_matches_dense_lp_oracle(case):
    k, n, w = FS_CASES[case]
    cn = c_of_n(n)
    rep = delta_fs(n, k, w, cn)
    assert rep.value == pytest.approx(_oracle_bound(n, k, w, cn, False), rel=1e-9)


@pytest.mark.parametrize("case", list(FS_CASES))
def test_delta_star_star_matches_dense_lp_oracle(case):
    k, n, w = FS_CASES[case]
    want = _oracle_bound(n, k, w, cn_envelope(n), True)
    assert delta_star_star_bound(n, k, w) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("case", list(FS_CASES))
def test_chaining_branch_matches_dense_lp_oracle(case):
    # the closed form on a family's W, the sparse LP on a dense one
    k, n, w = FS_CASES[case]
    cn = c_of_n(n)
    branches = correction._branches(k, n)
    assert list(branches) == ["chaining", "massart"]
    z_coef = (2.0 / math.sqrt(n)) * branches["chaining"]
    beta = correction._branch_minimizers(n, w, cn, abs_objective=False)["chaining"]
    objective = cn * (beta.beta0 + float(np.mean(beta.betas)))
    objective += z_coef * float(np.abs(omega_matrix(w, beta)).max())
    want = dense_branch_lp(k, w, cn, z_coef, per_column=False, abs_objective=False).fun
    assert objective == pytest.approx(want, rel=1e-9)


# Every family at K in {1, 2, 4, 20, 60} and eps in {0, 0.2, 0.6}; block RR
# with one block (m = K), a middle divisor, and singleton blocks (m = 1);
# two-level RR at nu in {0, 1}, whose K = 2 has singleton halves (m = 1).
_BLOCK_COUNTS = {1: (1,), 2: (1, 2), 4: (1, 2, 4), 20: (1, 5, 20), 60: (1, 6, 60)}
FAMILY_CASES = {}
for _k, _eps in itertools.product(_BLOCK_COUNTS, (0.0, 0.2, 0.6)):
    FAMILY_CASES[f"rr-k{_k}-eps{_eps}"] = dict(family="rr", k=_k, eps=_eps)
    for _b in _BLOCK_COUNTS[_k]:
        FAMILY_CASES[f"block-k{_k}-b{_b}-eps{_eps}"] = dict(
            family="block_rr", k=_k, eps=_eps, b=_b
        )
    for _nu in (0.0, 1.0) if _k % 2 == 0 else ():
        FAMILY_CASES[f"two-level-k{_k}-eps{_eps}-nu{_nu}"] = dict(
            family="two_level_rr", k=_k, eps=_eps, nu=_nu
        )


@pytest.mark.parametrize("case", list(FAMILY_CASES))
def test_family_closed_form_matches_massart_lp(case):
    # all four problems, each branch with the signed objective (delta_fs,
    # weight c(n)) and with |beta| (delta_star_star_bound, weight the
    # envelope): Massart against the sparse LP, chaining against the dense
    # LP oracle
    spec = ContaminationSpec(**FAMILY_CASES[case])
    w = build_transition(spec).W
    n = 5000
    assert noise_model._block_form(w) is not None
    scale = 2.0 / math.sqrt(n)
    problems = {
        name: scale * constant for name, constant in correction._branches(spec.k, n).items()
    }
    optimum = {}
    for weight, absolute in ((c_of_n(n), False), (cn_envelope(n), True)):
        closed = correction._branch_minimizers(n, w, weight, absolute)
        assert closed.keys() == problems.keys()
        for name, z_coef in problems.items():
            if name == "massart":
                lp_beta = correction._branch_lp(w, weight, z_coef, absolute)
            else:
                x = dense_branch_lp(spec.k, w, weight, z_coef, False, absolute).x
                lp_beta = BetaVector(beta0=x[0], betas=x[1 : 1 + spec.k])
            want = correction._fs_values(n, w, weight, lp_beta, absolute)[name]
            got = correction._fs_values(n, w, weight, closed[name], absolute)[name]
            assert got == pytest.approx(want, rel=1e-9), (name, absolute)
            optimum[name, absolute] = want
    # each branch's optimum is at most that branch at any other beta, so the
    # bound is the smaller branch optimum
    rep = delta_fs(n, spec.k, w, c_of_n(n))
    massart = optimum["massart", False]
    assert rep.branch_values["massart"] == pytest.approx(massart, rel=1e-9)
    signed = [v for (_, absolute), v in optimum.items() if not absolute]
    assert rep.value == pytest.approx(max(min(signed), 0.0), rel=1e-9)
    star = min(v for (_, absolute), v in optimum.items() if absolute)
    assert delta_star_star_bound(n, spec.k, w) == pytest.approx(star, rel=1e-9)
    # delta_fs_special's candidate beta' is one point of each problem,
    # evaluated on the same W, so it cannot beat the optimum
    assert rep.value <= delta_fs_special(spec, n, c_of_n(n)).value


def _family_case(case):
    spec = ContaminationSpec(**FAMILY_CASES[case])
    return spec.k, 5000, build_transition(spec).W


@pytest.mark.parametrize(
    "k, n, w",
    [pytest.param(*FS_CASES[case], id=case) for case in FS_CASES]
    + [pytest.param(*_family_case(case), id=case) for case in FAMILY_CASES],
)
def test_delta_fs_reports_the_smaller_branch_optimum(k, n, w):
    # the value is the smaller branch optimum itself, not a rescoring of
    # the minimizers, and beta_star is that branch's own minimizer
    cn = c_of_n(n)
    rep = delta_fs(n, k, w, cn)
    defined = [v for v in rep.branch_values.values() if v is not None]
    assert rep.value == min(defined)
    assert rep.branch_values[rep.branch] == rep.value
    beta = correction._branch_minimizers(n, w, cn, abs_objective=False)[rep.branch]
    assert rep.beta_star.beta0 == beta.beta0
    assert np.array_equal(rep.beta_star.betas, beta.betas)


def _objective(w, beta, weight, z_coef, per_column, absolute):
    """weight * (beta0 + mean_k beta_k) + z_coef * branch, |beta| when absolute."""
    abs_omega = np.abs(omega_matrix(w, beta))
    branch = abs_omega.sum(axis=0).max() if per_column else abs_omega.max()
    coefs = np.concatenate([[beta.beta0], beta.betas / len(beta.betas)])
    return weight * (np.abs(coefs) if absolute else coefs).sum() + z_coef * branch


@pytest.mark.parametrize("seed", range(20))
def test_block_closed_form_matches_lp_on_any_block_w(seed):
    # arbitrary d, s and o, and z coefficients from the boundedness edge up
    # (from below it for |beta|), reach optima that no family's W reaches
    # at a real n: the Massart form's four points x = d, 0, s and o with
    # beta0 = d - x, or beta0 = 0 for |beta| below z = weight, against the
    # sparse LP; the chaining kernel on the same W, whose |beta| draws below
    # z = K weight take the crossings of two A_k lines, against the dense LP
    rng = np.random.default_rng(seed)
    for k, m in ((4, 2), (6, 2), (6, 3), (5, 5), (12, 3)):
        d, s, o = rng.normal(size=3) * rng.choice([0.1, 1.0, 10.0], size=3)
        block = np.arange(k) // m
        w = np.where(block[:, None] == block[None, :], s, o) + (d - s) * np.eye(k)
        form = noise_model._block_form(w)
        assert np.array_equal(form[0], block)
        weight = rng.uniform(0.01, 1.0)
        for per_column, absolute in itertools.product((True, False), repeat=2):
            edge = weight if per_column else k * weight
            z_coef = edge * rng.uniform(0.2 if absolute else 1.0, 3.0)
            args = (weight, z_coef, per_column, absolute)
            if per_column:
                got = correction._block_minimizer(form, weight, z_coef, absolute)
                lp_beta = correction._branch_lp(w, weight, z_coef, absolute)
                want = _objective(w, lp_beta, *args)
            else:
                got = correction._chaining_minimizer(w, weight, z_coef, absolute)
                want = dense_branch_lp(k, w, *args).fun
            assert _objective(w, got, *args) == pytest.approx(
                want, rel=1e-9, abs=1e-12
            ), (k, m, per_column, absolute)


@st.composite
def chaining_problems(draw):
    """(K, W, weight, z, abs_objective) for the chaining kernel: W a dense
    channel inverse, a non-stochastic Gaussian matrix, a matrix with ties
    or a relabelled block form, K = 2..12, z from K weight up (signed) or
    from 0.2 K weight up (|beta|)."""
    k = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["inverse", "gaussian", "ties", "block"]))
    if kind == "inverse":
        w = _random_dense_w(k, seed)
    elif kind == "gaussian":
        w = rng.normal(size=(k, k)) * rng.choice([0.1, 1.0, 10.0])
    elif kind == "ties":
        w = rng.integers(-2, 3, size=(k, k)) / 2.0
    else:
        m = draw(st.sampled_from([m for m in range(1, k + 1) if k % m == 0]))
        d, s, o = rng.normal(size=3)
        block = rng.permutation(np.arange(k) // m)
        w = np.where(block[:, None] == block[None, :], s, o) + (d - s) * np.eye(k)
    absolute = draw(st.booleans())
    weight = draw(st.floats(min_value=0.01, max_value=1.0))
    ratio = draw(st.floats(min_value=0.2 if absolute else 1.0, max_value=50.0))
    return k, w, weight, ratio * (k * weight), absolute


@settings(deadline=None)
@given(chaining_problems())
def test_chaining_kernel_matches_dense_lp(problem):
    k, w, weight, z_coef, absolute = problem
    beta = correction._chaining_minimizer(w, weight, z_coef, absolute)
    args = (weight, z_coef, False, absolute)
    want = dense_branch_lp(k, w, *args).fun
    assert _objective(w, beta, *args) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_family_closed_form_refuses_an_unbounded_massart_branch():
    # at weight 1 and n = 100 the Massart z coefficient is 0.49, so the
    # branch is unbounded below, as the LP reports; the closed form must
    # fail the same way, not return a value
    spec = ContaminationSpec(family="block_rr", k=4, eps=0.2, b=2)
    w = build_transition(spec).W
    z_coef = (2.0 / math.sqrt(100)) * math.sqrt(math.log(4 * 100 + 1.0))
    with pytest.raises(SolverFailure, match="unbounded"):
        correction._branch_lp(w, 1.0, z_coef, abs_objective=False)
    with pytest.raises(SolverFailure, match="Massart branch is unbounded"):
        delta_fs(100, 4, w, 1.0)


@pytest.mark.parametrize(
    "perm, blocks",
    [(range(6), [0, 0, 0, 1, 1, 1]), ([4, 0, 3, 5, 1, 2], [0, 1, 0, 0, 1, 1])],
    ids=["labelled", "relabelled"],
)
def test_perturbed_family_w_takes_the_lp(perm, blocks):
    # one off-diagonal entry moved by 1e-6 breaks the block form, under any
    # labelling: the closed form must not be taken, and the LP still reaches
    # the exact optimum
    w = build_transition(ContaminationSpec(family="block_rr", k=6, eps=0.2, b=2)).W
    w = w[np.ix_(perm, perm)]
    assert np.array_equal(noise_model._block_form(w)[0], blocks)
    w[4, 1] += 1e-6
    assert noise_model._block_form(w) is None
    n = 2000
    cn = c_of_n(n)
    rep = delta_fs(n, 6, w, cn)
    assert rep.value == pytest.approx(_oracle_bound(n, 6, w, cn, False), rel=1e-9)


def test_chaining_branch_at_the_boundedness_edge():
    # z coefficient exactly K * weight: bounded, z is no longer pinned; the
    # one chaining kernel on a W of block form and on a dense W
    cases = ((_family_w(Family.BLOCK_RR, 4, b=2), 1e-12), (_random_dense_w(4, 7), 1e-9))
    for w, rel in cases:
        for weight in (0.5, 2.0):
            beta = correction._chaining_minimizer(w, weight, 4.0 * weight, False)
            objective = weight * (beta.beta0 + float(np.mean(beta.betas)))
            objective += 4.0 * weight * float(np.abs(omega_matrix(w, beta)).max())
            want = dense_branch_lp(4, w, weight, 4.0 * weight, False, False).fun
            assert objective == pytest.approx(want, rel=rel)


@pytest.fixture
def linprog_calls(monkeypatch):
    """The keyword arguments of every linprog call; _branch_lp imports
    linprog from scipy.optimize when it runs, so the spy sits there."""
    calls = []
    real = scipy_optimize.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy_optimize, "linprog", spy)
    return calls


def test_unbounded_chaining_branch_raises_solver_failure(linprog_calls):
    # below K * weight the chaining problem is unbounded below, as the dense
    # LP reports; delta_fs must refuse it by name before any LP runs
    w = _random_dense_w(4, 7)
    assert noise_model._block_form(w) is None
    with pytest.raises(ValueError, match="unbounded"):
        dense_branch_lp(4, w, 1.0, 3.9, per_column=False, abs_objective=False)
    linprog_calls.clear()
    # at a weight far above c(n): chaining z coefficient 34.02 < 4 * 10
    with pytest.raises(SolverFailure, match="the chaining branch is unbounded below"):
        delta_fs(100, 4, w, 10.0)
    assert linprog_calls == []


def test_unbounded_massart_branch_is_refused_before_any_lp(linprog_calls):
    # at weight 1 and n = 100 the chaining branch is bounded but the Massart
    # branch is not; a dense W is refused by name, as a W of block form is
    w = _random_dense_w(4, 7)
    with pytest.raises(SolverFailure, match="the Massart branch is unbounded below"):
        delta_fs(100, 4, w, 1.0)
    assert linprog_calls == []


def test_delta_fs_builds_one_sparse_lp(linprog_calls):
    # a W of block form never reaches the LP, so this one is dense: the
    # Massart LP alone, as the chaining branch has its exact kernel
    k = 12
    delta_fs(1000, k, _random_dense_w(k, 12), c_of_n(1000))
    shapes = [(2 * k * k + k, k * k + k + 2)]
    assert [call["A_ub"].shape for call in linprog_calls] == shapes
    for call in linprog_calls:
        a_ub = call["A_ub"]
        assert scipy_sparse.issparse(a_ub)
        per_row = np.diff(a_ub.tocsr().indptr)
        assert per_row[: 2 * k * k].max() <= 3
        assert call["method"] == "highs-ipm"


class _Captured(Exception):
    """Raised by the linprog stand-in once it has recorded its arguments."""


@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "abs"])
@pytest.mark.parametrize("k", [2, 3, 7, 20, 60])
def test_massart_lp_is_the_index_built_lp(k, absolute, monkeypatch):
    # the LP assembled from named blocks is the one the index arithmetic
    # built, entry for entry: A_ub's CSR structure and values (no explicit
    # zeros), b_ub and the cost; the stand-in stops before HiGHS runs
    calls = []

    def capture(cost, **kwargs):
        calls.append((cost, kwargs))
        raise _Captured

    monkeypatch.setattr(scipy_optimize, "linprog", capture)
    n = 1000
    w = _random_dense_w(k, 200 + k)
    weight = c_of_n(n)
    z_coef = (2.0 / math.sqrt(n)) * correction._branches(k, n)["massart"]
    with pytest.raises(_Captured):
        correction._branch_lp(w, weight, z_coef, absolute)
    [(cost, kwargs)] = calls
    want_cost, want_a, want_b = index_massart_lp(w, weight, z_coef, absolute)
    a_ub = kwargs["A_ub"]
    assert a_ub.format == "csr" and a_ub.shape == want_a.shape
    assert np.all(a_ub.data != 0.0)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a_ub, part), getattr(want_a, part)), part
    assert np.array_equal(kwargs["b_ub"], want_b)
    assert np.array_equal(cost, want_cost)


_SOLVER_RULE_CASES = {
    **{name: w for name, (_, _, w) in FS_CASES.items()},
    **{
        name: build_transition(ContaminationSpec(**kwargs)).W
        for name, kwargs in FAMILY_CASES.items()
    },
}


@pytest.mark.parametrize("case", list(_SOLVER_RULE_CASES))
def test_block_form_alone_picks_the_solver(case, linprog_calls):
    # the closed form for a W of block form, the Massart LP otherwise; the
    # chaining branch never takes an LP
    w = _SOLVER_RULE_CASES[case]
    k, n = w.shape[0], 5000
    want = 0 if noise_model._block_form(w) is not None else 1
    delta_fs(n, k, w, c_of_n(n))
    assert len(linprog_calls) == want
    linprog_calls.clear()
    delta_star_star_bound(n, k, w)
    assert len(linprog_calls) == want


# Every family at K in {4, 12, 60}, relabelled by a random permutation pi.
# Tolerances fixed before the first run: the relabelled delta_fs and
# delta_star_star_bound sum Omega's columns in another order, so they agree
# to 1e-12; delta_asy also accumulates the covariance in another order before
# its Cholesky factor, so it agrees to 1e-9; tau and i_hat are equal.
_RELABEL_CASES = {
    f"{family}-k{k}": dict(family=family, k=k, eps=0.3, nu=0.5, b=k // 3 if k > 4 else 2)
    for family in ("rr", "block_rr", "two_level_rr")
    for k in (4, 12, 60)
}


@pytest.mark.parametrize("case", list(_RELABEL_CASES))
def test_relabelling_changes_no_threshold(case, linprog_calls):
    # permute the score columns, the noisy labels and W's rows and columns
    # together; the relabelled T takes the closed form W, so no LP runs
    spec = ContaminationSpec(**_RELABEL_CASES[case])
    k, n, alpha = spec.k, 2000, 0.1
    rng = np.random.default_rng(k)
    scores = aps_scores(rng.dirichlet(np.ones(k), size=n), randomized=False)
    labels = rng.integers(0, k, size=n)
    pi = rng.permutation(k)
    inv = np.argsort(pi)
    tm = build_transition(spec)
    relabelled = TransitionMatrix(tm.T[np.ix_(inv, inv)])
    assert np.array_equal(relabelled.W, tm.W[np.ix_(inv, inv)])
    problems = [
        (CalibrationSet.from_scores(scores, labels), tm.W),
        (CalibrationSet.from_scores(scores[:, inv], pi[labels]), relabelled.W),
    ]
    cn = c_of_n(n)
    got = []
    for cal, w in problems:
        fs = delta_fs(n, k, w, cn)
        asy = delta_asy(cal, w, m=20_000, seed=3)
        rules = [
            standard_threshold(cal, alpha),
            adaptive_threshold(cal, w, alpha, fs),
            adaptive_threshold(cal, w, alpha, asy),
            optimistic_threshold(cal, w, alpha, asy),
        ]
        got.append((fs.value, delta_star_star_bound(n, k, w), asy.value, rules))
    (fs, star, asy, rules), (fs_pi, star_pi, asy_pi, rules_pi) = got
    assert fs_pi == pytest.approx(fs, rel=1e-12)
    assert star_pi == pytest.approx(star, rel=1e-12)
    assert asy_pi == pytest.approx(asy, rel=1e-9)
    for rule, rule_pi in zip(rules, rules_pi):
        assert (rule_pi.tau, rule_pi.i_hat) == (rule.tau, rule.i_hat)
    assert linprog_calls == []


@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_single_class_corrections_are_cn(eps):
    # K = 1: T = W = [[1]] whatever eps is, Omega vanishes and both
    # corrections are c(n); beta_star is the first optimal point of the
    # Massart form (x = d), beta' W's own block form (1, 0), whatever eps is
    spec = ContaminationSpec(family="rr", k=1, eps=eps)
    assert np.array_equal(build_transition(spec).W, [[1.0]])
    n = 5000
    cn = c_of_n(n)
    rep = delta_fs(n, 1, build_transition(spec), cn)
    assert (rep.value, rep.branch_values) == (cn, {"massart": cn, "chaining": None})
    assert (rep.beta_star.beta0, rep.beta_star.betas.tolist()) == (0.0, [1.0])
    special = delta_fs_special(spec, n, cn)
    assert special.value == cn
    assert (special.beta_star.beta0, special.beta_star.betas.tolist()) == (1.0, [0.0])


def test_delta_fs_large_k_randomized_response_is_cn():
    # Omega = 0 is attainable, so the optimum is exactly c(n); the dense LP
    # needed ~20 s and a 1.6 GB constraint matrix here
    n, k = 5000, 100
    cn = c_of_n(n)
    rep = delta_fs(n, k, _family_w(Family.RANDOMIZED_RESPONSE, k), cn)
    assert rep.value == pytest.approx(cn, rel=1e-12)


@pytest.mark.parametrize(
    "k, w",
    [
        (1, np.array([[1.3]])),
        (4, _family_w(Family.BLOCK_RR, 4, b=2)),
        (6, _family_w(Family.TWO_LEVEL_RR, 6, nu=0.4)),
        (8, _random_dense_w(8, 3)),
    ],
)
def test_delta_fs_branch_values(k, w):
    n, cn = 800, c_of_n(800)
    rep = delta_fs(n, k, w, cn)
    assert set(rep.branch_values) == {"massart", "chaining"}
    assert (rep.branch_values["chaining"] is None) == (k == 1)
    defined = {name: v for name, v in rep.branch_values.items() if v is not None}
    assert rep.value == pytest.approx(min(defined.values()), rel=1e-9)
    assert rep.branch == min(defined, key=defined.get)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["branch_values"] == rep.branch_values


def test_delta_fs_special_branch_values():
    for spec in (
        ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.1, b=2),
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=8, eps=0.2, nu=0.2),
    ):
        rep = delta_fs_special(spec, 1000, 0.04)
        assert rep.value == min(rep.branch_values.values())
        assert rep.branch == min(rep.branch_values, key=rep.branch_values.get)


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------


def small_calibration(seed, n, k):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.uniform(size=(n, k)), axis=1)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    return CalibrationSet.from_scores(scores, labels)


def test_covariance_single_point_grid_is_score_free_variance():
    # at t = 1 every indicator is 1, so f reduces to the column sum of W at
    # the observed label and G(1, 1) is its plug-in variance
    cal = small_calibration(0, 50, 3)
    w = np.linalg.inv(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    sigma = estimate_covariance(cal, w, np.array([1.0]))
    v = w[:, cal.noisy_labels].sum(axis=0)
    assert sigma[0, 0] == pytest.approx(float(np.var(v)), abs=1e-12)


def test_covariance_vanishes_for_stochastic_inverse_at_one():
    # column-stochastic W makes f identically 1 at t = 1
    cal = small_calibration(1, 40, 2)
    w = np.array([[0.7, 0.4], [0.3, 0.6]])
    sigma = estimate_covariance(cal, w, np.array([1.0]))
    assert abs(sigma[0, 0]) <= 1e-12


def test_covariance_matches_brute_force():
    cal = small_calibration(2, 60, 3)
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 3))
    grid = np.linspace(0.0, 1.0, 9)
    sigma = estimate_covariance(cal, w, grid)
    want = brute_covariance(cal.scores, cal.noisy_labels, w, grid)
    assert np.allclose(sigma, want, atol=1e-12)
    assert np.array_equal(sigma, sigma.T)
    assert np.min(np.diag(sigma)) >= -1e-12


@pytest.mark.parametrize("k", [3, 12])
def test_covariance_matches_brute_force_on_tied_scores(k):
    # scores rounded to one decimal sit exactly on points of the first grid;
    # the second grid stops below the largest score, so the scores past its
    # last point must drop out of every cell
    rng = np.random.default_rng(30 + k)
    n = 80
    ticks = np.linspace(0.0, 1.0, 11)
    scores = ticks[np.rint(10.0 * rng.uniform(size=(n, k))).astype(np.int64)]
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    cal = CalibrationSet.from_scores(scores, labels)
    w = rng.normal(size=(k, k))
    for grid in (ticks, ticks[:8]):
        sigma = estimate_covariance(cal, w, grid)
        want = brute_covariance(scores, labels, w, grid)
        assert np.max(np.abs(sigma - want)) <= 1e-12


def test_covariance_single_class_is_scaled_bridge():
    # K = 1, W = (1): G(s, t) = F(min(s,t)) - F(s) F(t) for the empirical cdf
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=(30, 1))
    cal = CalibrationSet.from_scores(scores, np.zeros(30, dtype=np.int64))
    grid = np.array([0.2, 0.5, 0.9])
    sigma = estimate_covariance(cal, np.array([[1.0]]), grid)
    f = np.array([(scores[:, 0] <= t).mean() for t in grid])
    want = np.minimum.outer(f, f) - np.outer(f, f)
    assert np.allclose(sigma, want, atol=1e-12)


def test_covariance_grid_validation():
    cal = small_calibration(4, 20, 2)
    w = np.eye(2)
    with pytest.raises(InvalidSpec):
        estimate_covariance(cal, w, np.array([0.5, 0.2]))
    with pytest.raises(InvalidSpec):
        estimate_covariance(cal, w, np.array([0.0, 1.5]))
    with pytest.raises(InvalidSpec):
        estimate_covariance(cal, w, np.array([]))
    with pytest.raises(InvalidSpec):
        estimate_covariance(cal, w, np.eye(2))
    # a NaN passed the sorted-within-[0, 1] check and gave a NaN covariance
    for bad in ([0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.5]):
        with pytest.raises(InvalidSpec, match="grid entries must be finite"):
            estimate_covariance(cal, w, np.array(bad))


def test_covariance_empty_class():
    scores = np.sort(np.random.default_rng(0).uniform(size=(10, 3)), axis=1)
    labels = np.zeros(10, dtype=np.int64)
    cal = CalibrationSet.from_scores(scores, labels)
    with pytest.raises(EmptyClass) as exc:
        estimate_covariance(cal, np.eye(3), np.array([0.5]))
    assert exc.value.label == 1


# ---------------------------------------------------------------------------
# Gaussian supremum simulation
# ---------------------------------------------------------------------------


def gbb_sup(sigma, m, seed):
    """Mean and SE of the absolute supremum, sampled on every grid point."""
    mean, se = correction._mean_se(correction._ladder_sups(sigma, (1,), m, seed)[0][0])
    return float(mean), float(se)


def test_gbb_sup_zero_covariance_short_circuits():
    assert gbb_sup(np.zeros((2, 2)), 10_000, seed=0) == (0.0, 0.0)


def test_gbb_sup_scalar_standard_normal():
    # absolute supremum of a single N(0, 1) coordinate has mean sqrt(2/pi)
    mean, se = gbb_sup(np.array([[1.0]]), 200_000, seed=1)
    assert abs(mean - math.sqrt(2.0 / math.pi)) <= 4.0 * se


def test_gbb_sup_deterministic():
    sigma = np.array([[0.2, 0.1], [0.1, 0.3]])
    assert gbb_sup(sigma, 5_000, seed=2) == gbb_sup(sigma, 5_000, seed=2)
    # the suprema themselves repeat bitwise, on every level
    a, b = (
        correction._ladder_sups(bridge_covariance(101), (4, 2, 1), 5_000, seed=8)[0]
        for _ in range(2)
    )
    assert np.array_equal(a, b)


def test_gbb_sup_brownian_bridge_grid_estimate():
    # exact bridge covariance on a fine grid: below the continuum constant
    # sqrt(pi/2) log 2 but already within a few percent at h = 1/200
    grid = np.linspace(0.0, 1.0, 201)
    sigma = np.minimum.outer(grid, grid) - np.outer(grid, grid)
    mean, se = gbb_sup(0.5 * (sigma + sigma.T), 50_000, seed=3)
    target = math.sqrt(math.pi / 2.0) * math.log(2.0)
    assert mean < target
    assert target - mean <= 0.06


def bridge_covariance(npts):
    grid = np.linspace(0.0, 1.0, npts)
    return np.minimum.outer(grid, grid) - np.outer(grid, grid)


def test_ladder_sups_match_dense_float64_oracle():
    # float32 draws and product against the same draws times the dense
    # float64 factor; m = 13,000 spans seven slices
    strides, m = (4, 2, 1), 13_000
    sigma = bridge_covariance(401)
    sups, _, factor, _ = correction._ladder_sups(sigma, strides, m, seed=21)
    assert sups.dtype == np.float64 and sups.shape == (len(strides), m)
    np.testing.assert_allclose(
        sups, dense_ladder_sups(factor, strides, m, seed=21), rtol=1e-5, atol=0.0
    )


@pytest.mark.parametrize("strides", [(2, 1), (4, 2, 1)])
@pytest.mark.parametrize("npts", [7, 101, 401])
@pytest.mark.parametrize("ragged", [False, True], ids=["m1000", "ragged"])
def test_ladder_sups_equal_one_call_sampler(npts, strides, ragged):
    # the buffers only split one draw stream: the suprema are bitwise those
    # of all m draws multiplied at once.  The ragged m is two full buffers
    # plus one draw, whose lone column a full-slices-then-remainder split
    # would send to a matrix-vector product
    m = 2 * correction._LADDER_DRAWS + 1 if ragged else 1000
    sigma = bridge_covariance(npts)
    sups, controls, factor, pair = correction._ladder_sups(sigma, strides, m, seed=5)
    want, sums, want_factor, want_pair = one_call_ladder_sups(sigma, strides, m, seed=5)
    assert np.array_equal(factor, want_factor) and pair == want_pair
    assert np.array_equal(sups, want)
    # the controls are those sums less their exact means, read off the
    # float32 factor actually multiplied
    rounded = factor.astype(np.float32).astype(np.float64)
    cov = rounded @ rounded.T
    means = [math.sqrt(2.0 / math.pi) * np.sqrt(cov.diagonal()).sum(), np.trace(cov)]
    np.testing.assert_allclose(controls + np.array(means)[:, None], sums, rtol=1e-12)


def test_ladder_controls_have_their_exact_means():
    # over 100,000 bridge draws, S1 and S2 less sqrt(2/pi) sum_j sigma_j and
    # trace(F F^T) average to zero within 4 SE: a wrong mean would bias the
    # regression estimate, and every threshold with it
    _, controls, _, _ = correction._ladder_sups(
        bridge_covariance(101), (4, 2, 1), 100_000, seed=13
    )
    mean, se = correction._mean_se(controls)
    assert np.all(np.abs(mean) <= 4.0 * se)


def test_ladder_zero_covariance_has_zero_controls():
    sups, controls, factor, eigenvalues = correction._ladder_sups(
        np.zeros((5, 5)), (2, 1), 1000, 0
    )
    assert not sups.any() and not controls.any() and controls.shape == (2, 1000)
    assert not factor.any() and factor.shape == (5, 5) and eigenvalues == (0.0, 0.0)


def test_ladder_sups_working_memory_does_not_grow_with_m():
    # two 0.8 MiB float32 buffers and the 2.4 MB of float64 suprema; one
    # 100,000 x 101 batch of draws and its product would take 81 MB
    sigma = bridge_covariance(101)
    tracemalloc.start()
    try:
        correction._ladder_sups(sigma, (4, 2, 1), 100_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_box_muller_moments():
    # 2,000,001 draws (an odd count): mean, variance and fourth moment of
    # N(0, 1) within 5 SE, each SE taken from the sample itself
    z = np.empty(2_000_001, dtype=np.float32)
    correction._box_muller(np.random.default_rng(17), z, np.empty(z.size + 1, np.float32))
    g = z.astype(np.float64)
    for power, target in ((1, 0.0), (2, 1.0), (4, 3.0)):
        values = g**power
        se = values.std() / math.sqrt(values.size)
        assert abs(values.mean() - target) <= 5.0 * se, power


@pytest.mark.parametrize("npts", [1, 7])
def test_box_muller_fills_odd_slices(npts):
    # a ragged m = 2 * 2048 + 1 is cut into slices of 1365 and 1366 draws,
    # so at an odd N the first slice holds an odd number of normals
    m = 2 * correction._LADDER_DRAWS + 1
    b = m // 3
    assert b * npts % 2 == 1
    z = np.full((npts, b), np.nan, dtype=np.float32)
    scratch = np.empty(correction._LADDER_DRAWS * npts, dtype=np.float32)
    correction._box_muller(np.random.default_rng(3), z, scratch)
    assert np.isfinite(z).all()
    sups, _, _, _ = correction._ladder_sups(np.eye(npts), (1,), m, seed=3)
    assert np.isfinite(sups).all() and (sups > 0.0).all()


class LargestUniforms:
    """Stands in for a Generator: every float64 uniform is 1 - 2^-53, the
    largest, and every float32 one 0, so each radius is the longest."""

    def random(self, dtype, out):
        out[...] = 1.0 - 2.0**-53 if dtype == np.float64 else 0.0
        return out


def test_box_muller_radius_reaches_past_eight_sigma():
    # 1 - u = 2^-53 gives sqrt(106 log 2) ~ 8.57; a float32 uniform would
    # stop at 1 - u = 2^-24, sqrt(48 log 2) ~ 5.77
    z = np.empty(10, dtype=np.float32)
    correction._box_muller(LargestUniforms(), z, np.empty(10, np.float32))
    assert np.all(z[:5] >= 8.0)
    assert z[:5] == pytest.approx(math.sqrt(106.0 * math.log(2.0)), rel=1e-6)
    assert np.all(z[5:] == 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        ContaminationSpec(family=family, k=4, eps=eps, **extra)
        for family, extra in (
            (Family.RANDOMIZED_RESPONSE, {}),
            (Family.TWO_LEVEL_RR, {"nu": 0.2}),
            (Family.BLOCK_RR, {"b": 2}),
        )
        for eps in (0.1, 0.2, 0.3)
    ],
    ids=lambda spec: f"{spec.family.value}-{spec.eps}",
)
def test_delta_asy_rounding_zero_covariance(spec):
    # constant scores make every f_t constant, so the covariance is zero in
    # exact arithmetic; rounding leaves a trace of either sign, and either
    # must give a correction of zero up to that rounding
    cal = CalibrationSet.from_scores(np.full((200, 4), 0.5), np.arange(200) % 4)
    rep = delta_asy(cal, closed_form_inverse(spec).W, m=1_000, seed=0)
    assert rep.value < 1e-6


def random_psd(npts, rank):
    """A random PSD matrix of size npts and the given rank."""
    a = np.random.default_rng(23 + npts + rank).standard_normal((npts, rank))
    return a @ a.T


def plug_in_covariance():
    """The plug-in covariance of test_delta_asy_agrees_with_multiplier_oracle's
    instance on the default grid, N = 101."""
    cal, w = oracle_instance()
    return estimate_covariance(cal, w, np.linspace(0.0, 1.0, 101))


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(lambda n=n, r=r: random_psd(n, r), id=f"random-{n}-rank-{r}")
            for n in (2, 7, 50, 101)
            for r in (n, max(1, n // 3))
        ),
        *(
            pytest.param(lambda n=n: bridge_covariance(n), id=f"bridge-{n}")
            for n in (25, 101, 401)
        ),
        pytest.param(plug_in_covariance, id="plug-in"),
    ],
)
def test_psd_factor_reproduces_the_clipped_covariance(make):
    # F F^T is Q max(Lambda, 0) Q^T, and for these PSD matrices sigma itself,
    # within N u ||sigma||; the pair is sigma's extreme eigenvalues before
    # clipping, within the same rounding of eigvalsh's
    sigma = make()
    npts = sigma.shape[0]
    tol = npts * np.finfo(float).eps / 2 * np.linalg.norm(sigma, 2)
    factor, (lam_min, lam_max) = correction._psd_factor(sigma)
    lam, q = np.linalg.eigh(sigma)
    assert np.abs(factor @ factor.T - (q * np.maximum(lam, 0.0)) @ q.T).max() <= tol
    assert np.abs(factor @ factor.T - sigma).max() <= tol
    eigvals = np.linalg.eigvalsh(sigma)
    assert abs(lam_min - eigvals[0]) <= tol and abs(lam_max - eigvals[-1]) <= tol


def test_psd_factor_refuses_an_indefinite_matrix():
    # eigenvalues 3 and -1: -1 is far below -1e-6 times the mean diagonal 1
    message = r"smallest eigenvalue -1 is below -1e-06 \* mean diagonal \(1\)"
    with pytest.raises(CholeskyFailure, match=message):
        correction._psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("shift", [-5e-9, -0.9e-6, -1.1e-6])
def test_psd_factor_refuses_exactly_below_the_tolerance(shift):
    # the bridge (smallest eigenvalue 0) shifted by shift times its mean
    # diagonal: refused only below -1e-6 of it.  The shift of -5e-9 is one
    # that a Cholesky factorization needed a jitter of 1e-8 to pass
    sigma = bridge_covariance(101)
    mean_diag = float(np.trace(sigma)) / 101
    sigma += shift * mean_diag * np.eye(101)
    before = sigma.copy()
    if shift < -1e-6:
        with pytest.raises(CholeskyFailure, match="smallest eigenvalue"):
            correction._psd_factor(sigma)
        return
    factor, (lam_min, _) = correction._psd_factor(sigma)
    assert lam_min == pytest.approx(shift * mean_diag, rel=1e-6)
    # clipping lifts the bridge's two null directions back to 0 and leaves
    # the others shifted, so F F^T is within the shift of the bridge
    gap = np.abs(factor @ factor.T - bridge_covariance(101)).max()
    assert gap <= -shift * mean_diag * 1.001
    assert np.array_equal(sigma, before)


def test_psd_factor_maps_a_failed_decomposition_to_cholesky_failure(monkeypatch):
    def fail(sigma):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(CholeskyFailure, match="did not converge"):
        correction._psd_factor(np.eye(3))


# ---------------------------------------------------------------------------
# Richardson extrapolation inside delta_asy
# ---------------------------------------------------------------------------


def extrapolate(monkeypatch, levels):
    """delta_asy's extrapolated supremum when every replicate at step h reads
    levels[h], i.e. its Richardson weights applied to those values."""
    rows = np.array([levels[h] for h in sorted(levels, reverse=True)])

    def fixed_sups(sigma, strides, m, seed):
        return np.repeat(rows[:, None], m, axis=1), np.zeros((2, m)), None, (0.0, 1.0)

    monkeypatch.setattr(correction, "_ladder_sups", fixed_sups)
    cal, w = asy_inputs(seed=12, n=200)
    rep = delta_asy(cal, w, h_ladder=tuple(levels), m=1_000, seed=0)
    return rep.mc_diagnostics["extrapolated"]


def test_richardson_recovers_sqrt_bias_exactly(monkeypatch):
    # one pass with exponent 1/2 on the two finest levels; the coarsest
    # level carries no weight, so its value does not matter
    a, c = 0.7, 3.1
    levels = {h: a + c * math.sqrt(h) for h in (0.01, 0.005)}
    levels[0.02] = -50.0
    assert extrapolate(monkeypatch, levels) == pytest.approx(a, abs=1e-12)


def test_richardson_constant_is_fixed_point(monkeypatch):
    levels = {0.04: 1.25, 0.02: 1.25, 0.01: 1.25}
    assert extrapolate(monkeypatch, levels) == pytest.approx(1.25, abs=1e-14)


def test_richardson_input_order_irrelevant():
    cal, w = asy_inputs(seed=12, n=200)
    a = delta_asy(cal, w, h_ladder=(1 / 200, 1 / 50, 1 / 100), m=1_000, seed=4)
    b = delta_asy(cal, w, h_ladder=(1 / 100, 1 / 200, 1 / 50), m=1_000, seed=4)
    assert a.to_dict() == b.to_dict()


def test_richardson_ladder_and_argument_validation():
    cal, w = asy_inputs(seed=7, n=100)
    with pytest.raises(LadderMismatch):
        delta_asy(cal, w, h_ladder=(0.01, 0.004), m=1_000)
    with pytest.raises(LadderMismatch):
        delta_asy(cal, w, h_ladder=(0.01, 0.01), m=1_000)
    with pytest.raises(InvalidSpec):
        delta_asy(cal, w, h_ladder=[], m=1_000)


# ---------------------------------------------------------------------------
# asymptotic correction
# ---------------------------------------------------------------------------


def asy_inputs(seed=0, n=2000, k=2, eps=0.2):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.uniform(size=(n, k)), axis=1)
    scores[:, -1] = 1.0
    labels = rng.integers(0, k, size=n)
    cal = CalibrationSet.from_scores(scores, labels)
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)
    return cal, closed_form_inverse(spec).W


def test_delta_asy_deterministic_and_consistent():
    cal, w = asy_inputs()
    kwargs = dict(h_ladder=(1 / 100, 1 / 200, 1 / 400), m=20_000, seed=11)
    a = delta_asy(cal, w, **kwargs)
    b = delta_asy(cal, w, **kwargs)
    assert a.value == b.value
    assert a.mc_diagnostics["raw"] == b.mc_diagnostics["raw"]
    # reported value is the clipped extrapolation scaled by 1/sqrt(n)
    assert a.value == max(a.mc_diagnostics["extrapolated"], 0.0) / math.sqrt(cal.n)
    assert a.method is CorrectionMethod.ASYMPTOTIC


def test_delta_asy_diagnostics_contents():
    cal, w = asy_inputs(seed=5, n=500)
    rep = delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100), m=5_000, seed=0)
    d = rep.mc_diagnostics
    assert set(d) == {
        "h_levels",
        "M",
        "raw",
        "extrapolated",
        "extrapolated_se",
        "control_coefficients",
        "variance_factor",
        "covariance_eigenvalues",
    }
    assert d["h_levels"] == [1 / 50, 1 / 100]
    assert d["M"] == 5_000
    assert [lv["h"] for lv in d["raw"]] == [1 / 50, 1 / 100]
    assert all(lv["se"] > 0.0 for lv in d["raw"])
    # the covariance's extreme eigenvalues, before clipping: its t = 1 row
    # vanishes, so the smallest is 0 up to rounding
    sigma = estimate_covariance(cal, w, np.linspace(0.0, 1.0, 101))
    lam = np.linalg.eigvalsh(sigma)
    assert d["covariance_eigenvalues"] == pytest.approx([lam[0], lam[-1]], abs=1e-12)
    assert abs(d["covariance_eigenvalues"][0]) <= 1e-12 < d["covariance_eigenvalues"][1]
    # statistical: the controlled extrapolate exceeds the plain finest mean
    # by ~19 of its SEs here; the exact per-replicate ordering down the
    # ladder is pinned in test_delta_asy_coupled_levels_grow_down_the_ladder
    assert d["extrapolated"] >= d["raw"][-1]["estimate"] - 1e-12
    # the extrapolation weighs the two levels by sqrt(2)/(sqrt(2) - 1) and
    # -1/(sqrt(2) - 1); whatever their correlation, the SE of the weighted
    # difference is at most the weighted sum of their SEs
    r2 = math.sqrt(2.0)
    bound = (r2 * d["raw"][-1]["se"] + d["raw"][-2]["se"]) / (r2 - 1.0)
    assert 0.0 < d["extrapolated_se"] <= bound


def test_delta_asy_seed_changes_estimate():
    cal, w = asy_inputs(seed=6, n=400)
    a = delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100), m=5_000, seed=1)
    b = delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100), m=5_000, seed=2)
    assert a.value != b.value


def test_delta_asy_rejects_non_integer_inverse_step():
    cal, w = asy_inputs(seed=7, n=100)
    with pytest.raises(InvalidSpec):
        delta_asy(cal, w, h_ladder=(0.003,), m=5_000, seed=0)
    with pytest.raises(InvalidSpec):
        delta_asy(cal, w, h_ladder=(), m=5_000, seed=0)
    with pytest.raises(InvalidSpec, match="at least two halving steps"):
        delta_asy(cal, w, h_ladder=(1 / 100,), m=5_000, seed=0)
    with pytest.raises(LadderMismatch):
        delta_asy(cal, w, h_ladder=(1 / 300, 1 / 400), m=5_000, seed=0)


@pytest.mark.parametrize(
    "h, match",
    [
        pytest.param(h, match, id=str(h))
        for hs, match in [
            ((math.nan, math.inf, -math.inf), "h_ladder entries must be finite"),
            ((0.0, 5e-324), "1/h must be a positive integer"),
        ]
        for h in hs
    ],
)
def test_delta_asy_rejects_non_finite_or_vanishing_step(h, match):
    # NaN, infinity and a subnormal step once escaped as ValueError or OverflowError
    cal, w = asy_inputs(seed=7, n=100)
    with pytest.raises(InvalidSpec, match=match):
        delta_asy(cal, w, h_ladder=(1 / 50, h), m=1_000, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_delta_asy_coupled_levels_grow_down_the_ladder(seed):
    # every coarse grid is a sub-grid of the finest and all levels read the
    # same draws, so each replicate's supremum can only grow down the ladder,
    # and with it each level's mean: these orderings are exact, not statistical
    cal, w = asy_inputs(seed=8, n=400)
    d = delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100, 1 / 200), m=2_000, seed=seed)
    raw = [lv["estimate"] for lv in d.mc_diagnostics["raw"]]
    sigma = estimate_covariance(cal, w, np.linspace(0.0, 1.0, 201))
    sups = correction._ladder_sups(sigma, (4, 2, 1), 2_000, seed)[0]
    assert correction._mean_se(sups)[0].tolist() == raw
    assert np.all(np.diff(sups, axis=0) >= 0.0)
    assert raw == sorted(raw)
    # statistical: the controlled extrapolate against the plain finest mean,
    # which it exceeds by 7.4-11.2 of its SEs at these seeds
    assert d.mc_diagnostics["extrapolated"] >= raw[-1]


def test_delta_asy_builds_one_covariance_one_factor_one_stream(monkeypatch):
    cal, w = asy_inputs(seed=9, n=300)
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(correction, "estimate_covariance")
    count(np.random, "default_rng")
    for name in ("eigh", "eigvalsh", "cholesky"):
        count(np.linalg, name)
    with pytest.raises(LadderMismatch):
        delta_asy(cal, w, h_ladder=(1 / 300, 1 / 400), m=1_000, seed=0)
    with pytest.raises(InvalidSpec):
        delta_asy(cal, w, h_ladder=(1 / 100,), m=1_000, seed=0)
    assert not calls  # rejected before any covariance or draw
    delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100, 1 / 200), m=1_000, seed=0)
    assert calls == {"estimate_covariance": 1, "eigh": 1, "default_rng": 1}


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"m": 2000.0}, "m must be an integer, got 2000.0"),
        ({"m": 999}, "m must be >= 1000, got 999"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ],
)
def test_delta_asy_checks_integers_first(monkeypatch, kwargs, message):
    # these used to fail inside numpy with a TypeError or ValueError, after
    # the covariance had been built
    def refuse(*args, **kwargs):
        raise AssertionError("covariance built before the arguments were checked")

    monkeypatch.setattr(correction, "estimate_covariance", refuse)
    cal, w = asy_inputs(seed=9, n=100)
    with pytest.raises(InvalidSpec, match=message):
        delta_asy(cal, w, **kwargs)


def test_delta_asy_zero_covariance():
    # f_t is 0 for every sample below t = 1 and W at t = 1: no variance
    cal = CalibrationSet.from_scores(np.ones((20, 1)), np.zeros(20, dtype=np.int64))
    rep = delta_asy(cal, np.eye(1), h_ladder=(1 / 50, 1 / 100), m=1_000, seed=0)
    d = rep.mc_diagnostics
    assert [(lv["estimate"], lv["se"]) for lv in d["raw"]] == [(0.0, 0.0), (0.0, 0.0)]
    assert (d["extrapolated"], d["extrapolated_se"]) == (0.0, 0.0)
    assert d["covariance_eigenvalues"] == [0.0, 0.0]
    assert rep.value == 0.0


def test_delta_asy_agrees_with_multiplier_oracle():
    # The multiplier process has exactly the plug-in covariance and its
    # supremum needs no grid, but it is itself discrete: a random walk with
    # nK steps, whose supremum sits O(1/sqrt(nK)) below that of the
    # continuous process the extrapolated ladder estimates.  Tolerance: 4 SE
    # of the difference of the two independent estimates, plus 1% of the
    # reference for that discreteness of the oracle.
    rng = np.random.default_rng(21)
    n, k = 2000, 4
    scores = aps_scores(rng.dirichlet(np.ones(k), size=n), randomized=True, seed=22)
    cal = CalibrationSet.from_scores(scores, rng.integers(0, k, size=n))
    spec = ContaminationSpec(family=Family.TWO_LEVEL_RR, k=k, eps=0.2, nu=0.2)
    w = closed_form_inverse(spec).W
    d = delta_asy(cal, w, m=4_000, seed=0).mc_diagnostics
    exact, exact_se = multiplier_sup(cal.scores, cal.noisy_labels, w, 4_000, seed=1)
    tol = 4.0 * math.hypot(d["extrapolated_se"], exact_se) + 0.01 * exact
    assert abs(d["extrapolated"] - exact) <= tol


BRIDGE_SUP = math.sqrt(math.pi / 2.0) * math.log(2.0)  # E sup |Brownian bridge|


@pytest.mark.parametrize(
    "spec",
    [
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.2, nu=0.2),
        ContaminationSpec(family=Family.BLOCK_RR, k=12, eps=0.2, b=3),
        ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=60, eps=0.2),
    ],
)
def test_default_ladder_matches_exact_scaled_bridge(spec):
    # Scores iid U(0, 1), independent of the noisy labels, and W = T^-1, whose
    # columns sum to 1: then Cov(f_s, f_t) = a (min(s, t) - s t) with
    # a = sum_l rho~_l sum_k W[k, l]^2, so the limit is sqrt(a) times a
    # Brownian bridge and its expected absolute supremum is known exactly.
    # Tolerance: 4 SE plus 0.5% of the reference for the plug-in error.
    rng = np.random.default_rng(31)
    n, k = 5000, spec.k
    labels = rng.integers(0, k, size=n)
    cal = CalibrationSet.from_scores(rng.uniform(size=(n, k)), labels)
    w = closed_form_inverse(spec).W
    rho = np.bincount(labels, minlength=k) / n
    exact = math.sqrt(float(rho @ (w * w).sum(axis=0))) * BRIDGE_SUP
    d = delta_asy(cal, w, m=50_000, seed=0).mc_diagnostics
    assert d["h_levels"] == [1 / 25, 1 / 50, 1 / 100]
    assert abs(d["extrapolated"] - exact) <= 4.0 * d["extrapolated_se"] + 0.005 * exact


def oracle_instance():
    """The score model of test_delta_asy_agrees_with_multiplier_oracle."""
    rng = np.random.default_rng(21)
    n, k = 2000, 4
    scores = aps_scores(rng.dirichlet(np.ones(k), size=n), randomized=True, seed=22)
    cal = CalibrationSet.from_scores(scores, rng.integers(0, k, size=n))
    spec = ContaminationSpec(family=Family.TWO_LEVEL_RR, k=k, eps=0.2, nu=0.2)
    return cal, closed_form_inverse(spec).W


def rr_instance():
    rng = np.random.default_rng(41)
    n, k = 2000, 10
    scores = aps_scores(rng.dirichlet(np.ones(k), size=n), randomized=True, seed=42)
    cal = CalibrationSet.from_scores(scores, rng.integers(0, k, size=n))
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=0.2)
    return cal, closed_form_inverse(spec).W


@pytest.mark.parametrize("instance", [oracle_instance, rr_instance])
def test_default_ladder_agrees_with_fine_ladder(instance):
    # the default ladder ends at N = 101; its extrapolate must agree with the
    # one that ends at N = 1601 within 4 SE of the difference plus 0.5%
    cal, w = instance()
    coarse = delta_asy(cal, w, m=20_000, seed=0).mc_diagnostics
    fine = delta_asy(
        cal, w, h_ladder=(1 / 400, 1 / 800, 1 / 1600), m=20_000, seed=1
    ).mc_diagnostics
    tol = 4.0 * math.hypot(coarse["extrapolated_se"], fine["extrapolated_se"])
    tol += 0.005 * fine["extrapolated"]
    assert abs(coarse["extrapolated"] - fine["extrapolated"]) <= tol


def bridge_instance():
    """K = 1, W = (1) and n evenly spread scores, none on a grid point: the
    plug-in covariance on the default grid is the Brownian bridge's."""
    n = 1000
    scores = ((np.arange(n) + 0.5) / n)[:, None]
    return CalibrationSet.from_scores(scores, np.zeros(n, dtype=np.int64)), np.eye(1)


@pytest.mark.parametrize("instance", [bridge_instance, oracle_instance])
def test_default_m_meets_the_precision_rule(instance):
    # the rule that set the default m: with the two control variates, the
    # SE of the extrapolate is at most that of the plain estimator at
    # m = 100,000 on the same seed; on the bridge the controlled extrapolate
    # also lies within 0.005 of the exact supremum
    cal, w = instance()
    d = delta_asy(cal, w).mc_diagnostics
    assert d["M"] == 50_000
    sigma = estimate_covariance(cal, w, np.linspace(0.0, 1.0, 101))
    if instance is bridge_instance:
        np.testing.assert_allclose(sigma, bridge_covariance(101), rtol=0.0, atol=1e-12)
    sups, _, _, _ = correction._ladder_sups(sigma, (4, 2, 1), 100_000, seed=0)
    r2 = math.sqrt(2.0)
    _, plain_se = correction._mean_se((r2 * sups[2] - sups[1]) / (r2 - 1.0))
    assert d["extrapolated_se"] <= plain_se
    if instance is bridge_instance:
        assert abs(d["extrapolated"] - BRIDGE_SUP) <= 0.005


@pytest.mark.parametrize("instance", [oracle_instance, rr_instance])
def test_channel_covariance_is_singular_at_one(instance):
    # every column of a channel's W sums to 1, so f_1 = 1 for every sample:
    # the t = 1 row of the plug-in covariance vanishes up to the rounding of
    # its n K^2 summed terms (below 1e-13 of its norm here, where the next
    # eigenvalues are ~1e-4 of it), and with it the smallest eigenvalue, also
    # with the t = 0 row left out.  A factor of the covariance must therefore
    # accept a singular matrix
    cal, w = instance()
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
    sigma = estimate_covariance(cal, w, np.linspace(0.0, 1.0, 101))
    tol = 1e-12 * np.linalg.norm(sigma, 2)
    assert np.abs(sigma[-1]).max() <= tol
    assert abs(np.linalg.eigvalsh(sigma[1:, 1:])[0]) <= tol
    rep = delta_asy(cal, w, h_ladder=(1 / 50, 1 / 100), m=1_000, seed=0)
    lam_min, lam_max = rep.mc_diagnostics["covariance_eigenvalues"]
    assert abs(lam_min) <= tol and lam_max > 1e3 * tol


# ---------------------------------------------------------------------------
# delta** bound and diagnostics
# ---------------------------------------------------------------------------


def test_delta_star_star_identity_equals_envelope():
    n = 100
    v = delta_star_star_bound(n, 3, np.eye(3))
    assert v == pytest.approx(cn_envelope(n), abs=1e-9)


def test_delta_star_star_randomized_response_candidate():
    # beta' = (1/(1-eps), -eps/(1-eps) 1) is feasible with Omega = 0, so the
    # optimum is at most the envelope times (1 + eps)/(1 - eps)
    n, k, eps = 400, 4, 0.2
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)
    w = closed_form_inverse(spec).W
    v = delta_star_star_bound(n, k, w)
    assert v <= cn_envelope(n) * (1.0 + eps) / (1.0 - eps) + 1e-9


def test_delta_star_star_dominates_signed_problem():
    # absolute-value objective over the same feasible set cannot be smaller
    w = closed_form_inverse(
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.2, nu=0.5)
    ).W
    n = 500
    signed = delta_fs(n, 4, w, cn_envelope(n)).value
    assert delta_star_star_bound(n, 4, w) >= signed - 1e-9


def test_diagnostics_identity_model():
    n, dss, dn = 100, 0.1, 0.05
    out = upper_bound_diagnostics(n, 2, np.eye(2), [0.5, 0.5], [0.5, 0.5], dn, dss)
    assert out["d_n"] == pytest.approx(n**0.25 * dss, abs=1e-15)
    # bracket is exactly 1 for the identity model so the last term vanishes
    assert out["phi_n"] == pytest.approx(3.0 * dss + 2.0 / n + n**-0.25, abs=1e-12)
    want = -0.1 + dn + math.sqrt(math.log(2.0 * n) / (2.0 * n)) + n**0.25 * dss
    assert out["assumption_a6_threshold"] == pytest.approx(want, abs=1e-12)


def test_diagnostics_binary_hand_instance():
    # T = [[.9, .1], [.1, .9]], uniform rho: V = [[1.125, -.125], [-.125, 1.125]]
    # giving bracket 1.25
    n, dss = 100, 0.18
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    out = upper_bound_diagnostics(n, 2, t, [0.5, 0.5], [0.5, 0.5], 0.0, dss)
    want = 3.0 * dss + 2.0 / n + n**-0.25 + (1.25 - 1.0) / (n + 1.0)
    assert out["phi_n"] == pytest.approx(want, abs=1e-12)


def test_diagnostics_alpha_moves_only_threshold():
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    lo = upper_bound_diagnostics(50, 2, t, [0.5, 0.5], [0.5, 0.5], 0.1, 0.1, alpha=0.05)
    hi = upper_bound_diagnostics(50, 2, t, [0.5, 0.5], [0.5, 0.5], 0.1, 0.1, alpha=0.2)
    assert lo["phi_n"] == hi["phi_n"] and lo["d_n"] == hi["d_n"]
    assert lo["assumption_a6_threshold"] - hi["assumption_a6_threshold"] == pytest.approx(
        0.15, abs=1e-12
    )


def test_diagnostics_singular_mixing_matrix():
    t = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(SingularM):
        upper_bound_diagnostics(100, 2, t, [0.5, 0.5], [0.5, 0.5], 0.1, 0.1)


def test_diagnostics_validation():
    t = np.eye(2)
    with pytest.raises(InvalidSpec):
        upper_bound_diagnostics(100, 2, t, [0.6, 0.6], [0.5, 0.5], 0.1, 0.1)
    with pytest.raises(InvalidSpec):
        upper_bound_diagnostics(100, 2, t, [1.0, 0.0], [0.5, 0.5], 0.1, 0.1)
    with pytest.raises(InvalidSpec):
        upper_bound_diagnostics(100, 2, t, [0.5, 0.5], [0.5, 0.5], -0.1, 0.1)
    with pytest.raises(InvalidSpec):
        upper_bound_diagnostics(100, 2, t, [0.5, 0.5], [0.5, 0.5], 0.1, 0.1, alpha=1.0)
    # a string alpha raised TypeError
    with pytest.raises(InvalidSpec, match="alpha must be a real number"):
        upper_bound_diagnostics(100, 2, t, [0.5, 0.5], [0.5, 0.5], 0.1, 0.1, alpha="0.1")


@pytest.mark.parametrize(
    "t, rho, rho_tilde, delta_n, delta_ss_n",
    [
        ([[np.nan, 0.1], [0.1, 0.9]], [0.5, 0.5], [0.5, 0.5], 0.1, 0.1),
        ([[0.9, 0.1], [0.1, 0.9]], [np.nan, 0.5], [0.5, 0.5], 0.1, 0.1),
        ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [np.inf, 0.5], 0.1, 0.1),
        ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [0.5, 0.5], np.nan, 0.1),
        ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [0.5, 0.5], 0.1, np.inf),
    ],
    ids=["nan-t", "nan-rho", "inf-rho-tilde", "nan-delta-n", "inf-delta-ss-n"],
)
def test_diagnostics_reject_non_finite_inputs(t, rho, rho_tilde, delta_n, delta_ss_n):
    # a NaN in t or rho leaked a ValueError from the inverse, and
    # delta_n = NaN returned a NaN threshold
    with pytest.raises(InvalidSpec, match="finite"):
        upper_bound_diagnostics(100, 2, np.array(t), rho, rho_tilde, delta_n, delta_ss_n)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_correction_report_rejects_negative_value():
    with pytest.raises(InvalidSpec):
        CorrectionReport(method=CorrectionMethod.CN_ONLY, value=-0.01)


def test_correction_report_to_dict_is_json_ready():
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=2, eps=0.1)
    rep = delta_fs(50, 2, closed_form_inverse(spec).W, 0.1)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["method"] == "finite_sample"
    assert blob["value"] == rep.value
    assert blob["beta_star"]["beta0"] == rep.beta_star.beta0

