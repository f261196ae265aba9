"""End-to-end acceptance gate: one test per headline guarantee.

Each test pins a quantitative behavior of the package at a stated tolerance:
Monte-Carlo recovery of the Brownian-bridge supremum constant, the c(n)
envelope, closed-form inverses, finite-sample optimizer certificates,
coverage and set-size behavior of the full synthetic pipeline under
contamination and without it, exact agreement with enumeration oracles,
optimistic-rule dominance, and the diagnostic curves.
"""

import math
import time

import numpy as np
import pytest

from noisycal import (
    CalibrationSet,
    ContaminationSpec,
    Family,
    adaptive_threshold,
    aps_scores,
    b_term,
    build_transition,
    c_of_n,
    closed_form_inverse,
    cn_envelope,
    delta_asy,
    delta_fs,
    delta_fs_special,
    delta_hat,
    delta_star_star_bound,
    optimistic_threshold,
    upper_bound_diagnostics,
)
from noisycal.cli import ExperimentConfig, run_synthetic
from noisycal.correction import CorrectionMethod, CorrectionReport

from oracles import brute_adaptive, brute_delta_hat, brute_optimistic

BRIDGE_TARGET = math.sqrt(math.pi / 2.0) * math.log(2.0)  # 0.8687...


def _report(value: float) -> CorrectionReport:
    return CorrectionReport(method=CorrectionMethod.CN_ONLY, value=value)


# ---------------------------------------------------------------------------
# shared experiment runs and oracle instances
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def contaminated_run():
    """Full pipeline, K=4, two-level contamination, 20 repetitions."""
    config = ExperimentConfig(
        k=4,
        d=20,
        n_train=10_000,
        n_cal=5000,
        n_test=2000,
        family="two_level_rr",
        eps=0.2,
        nu=0.2,
        alpha=0.1,
        methods=(
            "standard",
            "adaptive-fs",
            "adaptive-fs-simplified",
            "adaptive-asy",
            "adaptive-plus",
        ),
        repetitions=20,
        seed=20260814,
    )
    start = time.monotonic()
    result = run_synthetic(config)
    elapsed = time.monotonic() - start
    summary = {row["method"]: row for row in result["summary"]}
    return {"summary": summary, "elapsed": elapsed, "config": config}


@pytest.fixture(scope="module")
def oracle_instances():
    """100 random calibration problems with n <= 200 and K <= 8."""
    instances = []
    for idx in range(100):
        rng = np.random.default_rng(7000 + idx)
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.full(k, float(rng.uniform(0.4, 3.0))), size=n)
        labels = np.concatenate(
            [np.arange(k), rng.integers(0, k, size=n - k)]
        ).astype(np.int64)
        scores = aps_scores(
            probs, randomized=bool(idx % 2), seed=int(rng.integers(0, 2**31))
        )
        eps = float(rng.uniform(0.0, 0.3))
        if idx % 3 == 0:
            spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)
        elif idx % 3 == 1 and k % 2 == 0:
            spec = ContaminationSpec(family=Family.BLOCK_RR, k=k, eps=eps, b=2)
        else:
            spec = ContaminationSpec(
                family=Family.TWO_LEVEL_RR if k % 2 == 0 else Family.RANDOMIZED_RESPONSE,
                k=k,
                eps=eps,
                nu=float(rng.uniform(0.0, 0.9)) if k % 2 == 0 else 0.0,
            )
        w = closed_form_inverse(spec).W
        alpha = float(rng.uniform(0.05, 0.3))
        delta = 0.0 if idx % 5 == 0 else float(rng.uniform(0.0, 0.15))
        cal = CalibrationSet.from_scores(scores, labels)
        instances.append((cal, w, alpha, delta))
    return instances


# ---------------------------------------------------------------------------
# the acceptance criteria
# ---------------------------------------------------------------------------


def test_01_bridge_constant_from_mc_ladder():
    # K = 1 with W = (1) and uniform scores makes the limiting process a
    # Brownian bridge, whose absolute-supremum mean sqrt(pi/2) log 2 must be
    # recovered by the simulation ladder within 0.01, in under two minutes
    start = time.monotonic()
    n = 100_000
    rng = np.random.default_rng(7)
    scores = rng.uniform(size=(n, 1))
    cal = CalibrationSet.from_scores(scores, np.zeros(n, dtype=np.int64))
    rep = delta_asy(
        cal,
        np.array([[1.0]]),
        h_ladder=(1.0 / 400.0, 1.0 / 800.0, 1.0 / 1600.0),
        m=100_000,
        seed=0,
    )
    elapsed = time.monotonic() - start
    assert abs(math.sqrt(n) * rep.value - BRIDGE_TARGET) <= 0.01
    assert elapsed <= 120.0


def test_02_cn_estimates_stay_below_envelope():
    for n in (10, 100, 1000, 10_000):
        assert c_of_n(n) <= math.sqrt(math.pi / (2.0 * n))


def test_03_closed_form_inverses_match_numeric_over_grid():
    specs = []
    for k in (2, 4, 8, 16):
        for eps in (0.0, 0.1, 0.2):
            specs.append(
                ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)
            )
            for nu in (0.0, 0.2, 0.8):
                if k % 2 == 0:
                    specs.append(
                        ContaminationSpec(
                            family=Family.TWO_LEVEL_RR, k=k, eps=eps, nu=nu
                        )
                    )
            for b in (2, 4):
                if k % b == 0:
                    specs.append(
                        ContaminationSpec(family=Family.BLOCK_RR, k=k, eps=eps, b=b)
                    )
    assert len(specs) > 50
    for spec in specs:
        tm = closed_form_inverse(spec)
        numeric = np.linalg.inv(tm.T)
        assert np.max(np.abs(tm.W - numeric)) <= 1e-8
        assert np.max(np.abs(tm.W @ tm.T - np.eye(spec.k))) <= 1e-10


def test_04_finite_sample_optimizer_certificates():
    c1000 = c_of_n(1000)
    # the symmetric-noise inverse sits exactly on the zero-deviation
    # manifold, so the optimum collapses to c(n)
    for eps in (0.1, 0.2):
        spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=eps)
        w = closed_form_inverse(spec).W
        rep = delta_fs(1000, 4, w, c1000)
        assert abs(rep.value - c1000) <= 1e-6
        b, _ = b_term(4, 1000, rep.beta_star, w)
        assert b <= 1e-12
    # for the other families the exact optimizer can only improve on the
    # analytic candidate beta'
    for spec in (
        ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.1, b=2),
        ContaminationSpec(family=Family.BLOCK_RR, k=8, eps=0.2, b=4),
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.2, nu=0.2),
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.1, nu=0.8),
    ):
        w = closed_form_inverse(spec).W
        lp = delta_fs(1000, spec.k, w, c1000)
        candidate = delta_fs_special(spec, 1000, c1000)
        assert lp.value <= candidate.value + 1e-9
    # the correction scales as 1/sqrt(n)
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=4, eps=0.1)
    w = closed_form_inverse(spec).W
    c4000 = c_of_n(4000)
    ratio = delta_fs(4000, 4, w, c4000).value / delta_fs(1000, 4, w, c1000).value
    assert 0.45 <= ratio <= 0.55


def test_05_contaminated_experiment_coverage_and_size_ordering(contaminated_run):
    summary = contaminated_run["summary"]
    # (a) uncorrected calibration over-covers under contamination
    assert summary["standard"]["mean_coverage"] >= 0.91
    # (b) every adaptive correction keeps coverage at the nominal level
    for method in ("adaptive-fs", "adaptive-fs-simplified", "adaptive-asy"):
        row = summary[method]
        assert row["mean_coverage"] >= 0.9 - 3.0 * row["se_coverage"]
    # (c) set sizes: the two correction routes are statistically
    # indistinguishable at this configuration, and both are far below the
    # uncorrected sets; all comparisons carry the same 3 SE tolerance
    fs, asy, std = (
        summary["adaptive-fs"],
        summary["adaptive-asy"],
        summary["standard"],
    )
    assert asy["mean_size"] <= fs["mean_size"] + 3.0 * fs["se_size"]
    assert fs["mean_size"] <= std["mean_size"] + 3.0 * std["se_size"]
    # (d) the 20-repetition experiment stays within its time budget
    assert contaminated_run["elapsed"] <= 600.0


def test_06_clean_experiment_standard_coverage_window():
    config = ExperimentConfig(
        k=4,
        d=20,
        n_train=10_000,
        n_cal=5000,
        n_test=2000,
        family="two_level_rr",
        eps=0.0,
        nu=0.0,
        alpha=0.1,
        methods=("standard",),
        repetitions=20,
        seed=606,
    )
    row = run_synthetic(config)["summary"][0]
    n = config.n_cal
    lo = 0.9 - 3.0 * row["se_coverage"]
    hi = 0.9 + 1.0 / (n + 1.0) + 3.0 * row["se_coverage"]
    assert lo <= row["mean_coverage"] <= hi


def test_07_module_outputs_equal_enumeration_oracles(oracle_instances):
    for cal, w, alpha, delta in oracle_instances:
        curve = delta_hat(cal, w)
        order_want, values_want = brute_delta_hat(cal.scores, cal.noisy_labels, w)
        assert np.array_equal(curve.order_stats, order_want)
        assert np.allclose(curve.values, values_want, rtol=0.0, atol=1e-12)
        res = adaptive_threshold(cal, w, alpha, _report(delta))
        i_want, tau_want, members_want = brute_adaptive(
            order_want, values_want, alpha, delta
        )
        assert res.i_hat == i_want
        assert res.tau == tau_want
        # the index set itself, reconstructed from the module's curve
        n = cal.n
        members = [
            i
            for i in range(1, n + 1)
            if i / n >= 1.0 - alpha - curve.values[i - 1] + delta
        ]
        assert members == members_want


def test_08_optimistic_dominance(oracle_instances, contaminated_run):
    # the clipped rule admits every rank the plain rule admits, so its
    # threshold can never be larger, on every oracle instance
    for cal, w, alpha, delta in oracle_instances:
        plus = optimistic_threshold(cal, w, alpha, _report(delta))
        plain = adaptive_threshold(cal, w, alpha, _report(delta))
        assert plus.tau <= plain.tau
        curve = delta_hat(cal, w)
        order_want, values_want = brute_delta_hat(cal.scores, cal.noisy_labels, w)
        i_want, tau_want, _ = brute_optimistic(order_want, values_want, alpha, delta)
        assert plus.i_hat == i_want
        assert plus.tau == tau_want
    # and in the full experiment it stays as informative as the plain
    # adaptive rule without losing coverage
    summary = contaminated_run["summary"]
    plus, fs = summary["adaptive-plus"], summary["adaptive-fs"]
    assert plus["mean_size"] <= fs["mean_size"] + 3.0 * fs["se_size"]
    assert plus["mean_coverage"] >= 0.9 - 3.0 * plus["se_coverage"]


def test_09_diagnostics_decrease_and_hand_value():
    spec = ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=2, eps=0.2)
    tm = build_transition(spec)
    rho = np.array([0.5, 0.5])  # symmetric noise keeps rho_tilde = rho
    phis = []
    for n in (100, 1000, 10_000, 100_000):
        dss = delta_star_star_bound(n, 2, tm.W)
        out = upper_bound_diagnostics(n, 2, tm.T, rho, rho, 0.0, dss)
        phis.append(out["phi_n"])
    assert all(a > b for a, b in zip(phis, phis[1:]))
    # hand value at n = 100: delta** = 1.5 sqrt(pi/200) (the zero-deviation
    # candidate, attained exactly), V = M^-1 = [[1.125, -.125], [-.125, 1.125]]
    # so the bracket is 1.25, giving
    # phi = 3 delta** + 2/100 + 100^(-1/4) + 0.25/101 = 0.9026943753335655
    hand = 3.0 * (1.5 * math.sqrt(math.pi / 200.0)) + 0.02 + 100.0**-0.25 + 0.25 / 101.0
    assert abs(hand - 0.9026943753335655) <= 1e-12
    assert abs(phis[0] - hand) <= 1e-9
