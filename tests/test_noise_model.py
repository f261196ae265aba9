import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from noisycal import (
    ContaminationSpec,
    Family,
    InvalidSpec,
    SingularM,
    SingularTransition,
    TransitionMatrix,
    build_transition,
    closed_form_inverse,
    noise_model,
    sample_noisy_labels,
    upper_bound_diagnostics,
)
from noisycal.cli import correction_report
from oracles import (
    NEAR_ONE,
    SKEWED_EPS,
    exact_family_condition,
    family_grid,
    gauss_inverse,
    ladder_spec,
    reference_family_inverse,
    reference_family_matrix,
    reference_noisy_labels,
    skewed_channel,
    spy_svd,
    two_level_constants,
)

FAMILIES = ("rr", "block_rr", "two_level_rr")


def rr(k, eps):
    return ContaminationSpec(family=Family.RANDOMIZED_RESPONSE, k=k, eps=eps)


def test_build_rr_zero_noise_is_identity():
    tm = build_transition(rr(2, 0.0))
    assert np.array_equal(tm.T, np.eye(2))
    assert np.array_equal(tm.W, np.eye(2))


def test_build_rr_half_noise_closed_form():
    tm = build_transition(rr(2, 0.5))
    assert np.allclose(tm.T, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    # W = 1/(1-eps) I - eps/(K(1-eps)) J, confirmed by an elimination oracle
    assert np.allclose(tm.W, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-12)
    assert np.allclose(tm.W, gauss_inverse(tm.T), atol=1e-12)


def test_build_block_rr_structure():
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.2, b=2)
    t = build_transition(spec).T
    expected = np.array(
        [
            [0.9, 0.1, 0.0, 0.0],
            [0.1, 0.9, 0.0, 0.0],
            [0.0, 0.0, 0.9, 0.1],
            [0.0, 0.0, 0.1, 0.9],
        ]
    )
    assert np.allclose(t, expected, atol=1e-15)


def test_closed_form_rr_k4():
    spec = rr(4, 0.1)
    w = closed_form_inverse(spec).W
    expected = np.eye(4) / 0.9 - 0.1 / (4 * 0.9) * np.ones((4, 4))
    assert np.allclose(w, expected, atol=1e-15)
    assert np.max(np.abs(w - gauss_inverse(build_transition(spec).T))) <= 1e-10


def test_closed_form_two_level_matches_numeric():
    spec = ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.1, nu=0.8)
    tm = closed_form_inverse(spec)
    assert np.max(np.abs(tm.W - gauss_inverse(tm.T))) <= 1e-8


def test_closed_form_block_zero_noise():
    spec = ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.0, b=2)
    assert np.array_equal(closed_form_inverse(spec).W, np.eye(4))


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.2])
def test_closed_form_grid_against_elimination(k, eps):
    specs = [rr(k, eps)]
    for nu in (0.0, 0.2, 0.8):
        specs.append(
            ContaminationSpec(family=Family.TWO_LEVEL_RR, k=k, eps=eps, nu=nu)
        )
    for b in (2, 4):
        if k % b == 0:
            specs.append(ContaminationSpec(family=Family.BLOCK_RR, k=k, eps=eps, b=b))
    for spec in specs:
        tm = closed_form_inverse(spec)
        assert np.max(np.abs(tm.W - gauss_inverse(tm.T))) <= 1e-8
        assert np.max(np.abs(tm.W @ tm.T - np.eye(k))) <= 1e-10
        assert np.max(np.abs(tm.T @ tm.W - np.eye(k))) <= 1e-10


def test_block_form_matches_per_family_formulas_over_grid():
    # one constructor under two public names
    assert closed_form_inverse is build_transition
    specs = family_grid()
    assert any(s.family is Family.BLOCK_RR and s.b == s.k > 1 for s in specs)
    assert any(s.family is Family.TWO_LEVEL_RR and s.k == 2 for s in specs)
    for spec in specs:
        t_ref = reference_family_matrix(spec)
        assert np.array_equal(build_transition(spec).T, t_ref), spec
        tm = closed_form_inverse(spec)
        assert np.array_equal(tm.T, t_ref), spec
        w_ref = reference_family_inverse(spec)
        assert np.max(np.abs(tm.W - w_ref)) <= 1e-13 * np.max(np.abs(w_ref)), spec
        if spec.eps == 0.0:
            assert np.array_equal(tm.W, np.eye(spec.k)), spec


@pytest.mark.parametrize("family, nu", [("rr", 0.0), ("two_level_rr", 0.5)])
def test_family_channel_near_eps_one_is_certified(family, nu):
    # the family's T, given as a matrix and relabelled, takes the closed-form
    # W, which inverts it to 1e-10; its numerical inverse misses I by ~1e-7
    spec = ContaminationSpec(family=family, k=4, eps=1.0 - 1e-10, nu=nu)
    tm = build_transition(spec)
    assert np.max(np.abs(tm.W @ tm.T - np.eye(4))) <= 1e-10
    assert tm.condition_number > 1e9
    assert np.array_equal(TransitionMatrix(tm.T).W, tm.W)
    perm = np.array([2, 0, 3, 1])
    relabelled = TransitionMatrix(tm.T[np.ix_(perm, perm)])
    assert np.array_equal(relabelled.W, tm.W[np.ix_(perm, perm)])


def test_near_singular_t_without_block_form_is_certified():
    # the rr channel above with two columns swapped: condition number 1e10
    # and no block form, so T is inverted numerically; that inverse misses I
    # by ~2e-7, which is rounding at this conditioning, not a fault of W
    t = build_transition(rr(4, 1.0 - 1e-10)).T[:, [1, 0, 2, 3]]
    assert 1e9 < np.linalg.cond(t) <= 1e12
    tm = TransitionMatrix(t)
    assert tm.condition_number == np.linalg.cond(t)
    assert np.array_equal(tm.W, np.linalg.inv(t))


def test_family_past_the_condition_limit_is_refused():
    # rr at K = 4 and 1 - eps = 1e-13 has condition number 1e13
    spec = rr(4, 1.0 - 1e-13)
    with pytest.raises(SingularTransition, match=r"condition number \S+ exceeds 1e12$"):
        build_transition(spec)
    # the refusal names the condition number, 3.3e13 at 1 - eps = 3e-14
    message = r"^transition matrix is numerically singular: condition number 3\.336e\+13 exceeds 1e12$"
    with pytest.raises(SingularTransition, match=message):
        TransitionMatrix(reference_family_matrix(rr(4, 1.0 - 3e-14)))


def _certified(build, arg) -> bool:
    """Whether ``build(arg)`` certifies a channel; a refusal must name the
    condition limit."""
    try:
        build(arg)
    except SingularTransition as exc:
        assert re.fullmatch(
            r"transition matrix is numerically singular: "
            r"condition number \S+ exceeds 1e12",
            str(exc),
        ), exc
        return False
    return True


@pytest.mark.parametrize("k", [4, 60, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_refusal_is_monotone_at_the_condition_limit(family, k):
    # as 1 - eps falls, a family's channel is certified exactly while the
    # exact condition number of its stored T is at most 1e12, then refused by
    # that limit and no other rule
    outcomes = []
    for one_minus_eps in NEAR_ONE:
        spec = ladder_spec(family, k, one_minus_eps)
        outcomes.append(_certified(build_transition, spec))
        assert outcomes[-1] == (exact_family_condition(spec) <= 1e12), spec
    assert outcomes[0] and not outcomes[-1]
    assert outcomes == sorted(outcomes, reverse=True)


@pytest.mark.parametrize("k", [4, 60, 200])
def test_refusal_without_block_form_is_monotone_at_the_condition_limit(k):
    outcomes = []
    for eps in SKEWED_EPS:
        t = skewed_channel(k, eps)
        assert noise_model._block_form(t) is None
        outcomes.append(_certified(TransitionMatrix, t))
        assert outcomes[-1] == (np.linalg.cond(t) <= 1e12), eps
    assert outcomes[0] and not outcomes[-1]
    assert outcomes == sorted(outcomes, reverse=True)


@pytest.mark.parametrize(
    "t",
    [
        np.full((3, 3), 1.0 / 3.0),
        # blocks {0, 1} and {2, 3}: l1 = 0.5, l2 = 0.5 + 2 (0 - 0.25) = 0
        np.array(
            [
                [0.5, 0.0, 0.25, 0.25],
                [0.0, 0.5, 0.25, 0.25],
                [0.25, 0.25, 0.5, 0.0],
                [0.25, 0.25, 0.0, 0.5],
            ]
        ),
        np.array([[0.5, 0.5, 0.2], [0.3, 0.3, 0.3], [0.2, 0.2, 0.5]]),
    ],
    ids=["block-l1-zero", "block-l2-zero", "equal-columns"],
)
def test_exactly_singular_t_raises_the_typed_error_alone(t):
    # a RuntimeWarning fails the test too (pyproject's filterwarnings), as
    # would a ZeroDivisionError from the closed form or a LinAlgError
    with pytest.raises(SingularTransition, match="condition number"):
        TransitionMatrix(t)


@pytest.mark.parametrize("k", [4, 12, 60])
@pytest.mark.parametrize("family", FAMILIES)
def test_relabelled_channel_keeps_its_certification(family, k):
    # the last point is just past the limit, at condition number 1.1e12
    perm = np.random.default_rng(k).permutation(k)
    assert exact_family_condition(ladder_spec(family, k, 9e-13)) > 1e12
    for one_minus_eps in (0.3, 1e-6, 1e-11, 9e-13):
        t = reference_family_matrix(ladder_spec(family, k, one_minus_eps))
        relabelled = t[np.ix_(perm, perm)]
        cond, cond_pi = (
            noise_model._condition_number(a, noise_model._exact_block_form(a))
            for a in (t, relabelled)
        )
        assert cond_pi == pytest.approx(cond, rel=1e-12)
        certified = _certified(TransitionMatrix, t)
        assert _certified(TransitionMatrix, relabelled) == certified == (cond <= 1e12)


@pytest.mark.parametrize("k", [2, 4, 12, 60, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_relabelled_family_t_takes_the_relabelled_closed_form(monkeypatch, family, k):
    # T given as a matrix under a random labelling is read in its block form:
    # its W is the family's closed form relabelled, bit for bit, and its
    # condition number that of the family, with no SVD taken
    calls = spy_svd(monkeypatch)
    perm = np.random.default_rng(k).permutation(k)
    for one_minus_eps in (0.7, 1e-6, 1e-11):
        tm = build_transition(ladder_spec(family, k, one_minus_eps))
        relabelled = TransitionMatrix(tm.T[np.ix_(perm, perm)])
        assert np.array_equal(relabelled.W, tm.W[np.ix_(perm, perm)]), one_minus_eps
        assert relabelled.condition_number == tm.condition_number, one_minus_eps
    assert calls == []


@pytest.mark.parametrize("balanced", [True, False], ids=["two-blocks", "no-block-form"])
def test_near_block_t_gets_its_own_inverse(balanced):
    # rr at K = 60 and 1 - eps = 1e-11, moved along a contrast v by at most
    # 8e-15 an entry: within the 1e-12 tolerance of W's block-form reading,
    # which takes it for rr.  The closed form of rr misses T's eigenvalue on
    # v, 1e-11 - delta, by up to 5%; T's own inverse is accurate to about
    # cond u = 1e-5, and so is its condition number
    k = 60
    v = np.resize([1.0, -1.0], k) if balanced else np.random.default_rng(7).standard_normal(k)
    v -= v.mean()
    v /= np.linalg.norm(v)
    delta = 8e-15 / np.max(np.abs(np.outer(v, v)))
    t = reference_family_matrix(rr(k, 1.0 - 1e-11)) - delta * np.outer(v, v)
    assert np.array_equal(noise_model._block_form(t)[0], np.zeros(k))
    tm = TransitionMatrix(t)
    assert tm.W @ v == pytest.approx(v / (1e-11 - delta), rel=1e-3)
    assert tm.condition_number == pytest.approx(np.linalg.cond(t), rel=1e-3)


def test_t_is_certified_once(monkeypatch):
    # the constructor reads T's block form once and certifies it from that
    # reading: one SVD for a T without the block form, none for a T of
    # block form, and none and no reading when the condition number is read
    # afterwards.  correction_report builds its channel once; the readings
    # of W in correction go through that module's own name
    calls = spy_svd(monkeypatch)
    real, reads = noise_model._block_form, []

    def spy(a, *args, **kwargs):
        reads.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(noise_model, "_block_form", spy)
    dense = TransitionMatrix(skewed_channel(12, 0.3))
    assert calls == [(12, 12)]
    assert len(reads) == 1 and np.array_equal(reads[0], dense.T)
    spec = rr(12, 0.3)
    family = build_transition(spec)
    assert calls == [(12, 12)]
    assert len(reads) == 2 and np.array_equal(reads[1], family.T)
    conds = dense.condition_number, family.condition_number
    assert calls == [(12, 12)] and len(reads) == 2
    report = correction_report(spec, 1000)
    assert report.condition_number == conds[1]
    assert calls == [(12, 12)]
    assert len(reads) == 3 and np.array_equal(reads[2], family.T)
    assert conds[0] == np.linalg.cond(dense.T)


@pytest.mark.parametrize(
    "spec",
    [
        ContaminationSpec(family="block_rr", k=6, eps=0.2, b=6),
        ContaminationSpec(family="block_rr", k=6, eps=0.2, b=1),
        ContaminationSpec(family="two_level_rr", k=2, eps=0.2, nu=0.5),
    ],
    ids=["block-b-eq-k", "block-b1", "two-level-k2"],
)
def test_block_form_of_one_block_channels(spec):
    # blocks of one label (block RR with b = K, where T = I, and the
    # two-level halves at K = 2) and RR leave one distinct off-diagonal
    # value, read as one block of K labels; its closed form is the family's W
    tm = build_transition(spec)
    form = noise_model._block_form(tm.T)
    assert np.array_equal(form[0], np.zeros(spec.k))
    assert form[1:] == (tm.T[0, 0] - tm.T[0, 1], tm.T[0, 1], tm.T[0, 1])
    w_ref = reference_family_inverse(spec)
    assert np.max(np.abs(tm.W - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))


def test_identity_of_one_label_is_its_own_inverse():
    # no off-diagonal entry to read: s = o = 0 at K = 1
    tm = TransitionMatrix(np.eye(1))
    assert np.array_equal(tm.W, np.eye(1))
    blocks, diag, within, across = noise_model._block_form(tm.T)
    assert np.array_equal(blocks, [0]) and (diag, within, across) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("perm", [range(6), [3, 1, 5, 0, 2, 4]])
def test_blocks_of_unequal_size_are_not_block_form(perm):
    # two off-diagonal values, within the blocks {0, 2, 4, 5} and {1, 3}:
    # neither value's labels form blocks of one size, under any labelling
    blocks = np.array([0, 1, 0, 1, 0, 0])
    a = np.where(blocks[:, None] == blocks[None, :], 0.1, 0.02) + 0.5 * np.eye(6)
    assert noise_model._block_form(a[np.ix_(perm, perm)]) is None


def test_two_level_constants_invariants():
    for eps in (0.05, 0.1, 0.2):
        for nu in (0.0, 0.2, 0.8, 1.0):
            der = two_level_constants(eps, nu)
            assert der.h >= 0.0
            assert der.p >= eps / (1 - eps) - 1e-12
            assert abs(der.h - der.p) <= 2 * eps / (1 - eps) + 1e-12
    # nu = 0 collapses both block rates to the plain flip rate
    der0 = two_level_constants(0.1, 0.0)
    assert der0.p == pytest.approx(0.1 / 0.9, abs=1e-12)
    assert der0.h == pytest.approx(0.1 / 0.9, abs=1e-12)


def test_spec_validation():
    with pytest.raises(InvalidSpec, match="family must be one of"):
        ContaminationSpec(family="bogus", k=4)
    with pytest.raises(InvalidSpec):
        rr(2, 1.0)
    with pytest.raises(InvalidSpec):
        rr(2, -0.1)
    with pytest.raises(InvalidSpec):
        ContaminationSpec(family=Family.BLOCK_RR, k=4, eps=0.1, b=3)
    with pytest.raises(InvalidSpec):
        ContaminationSpec(family=Family.TWO_LEVEL_RR, k=3, eps=0.1, nu=0.5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(family="rr", k=4.0, eps=0.2), "k must be an integer, got 4.0"),
        (dict(family="block_rr", k=4, eps=0.2, b=2.0), "b must be an integer, got 2.0"),
        (dict(family="block_rr", k=4, eps=0.2, b=True), "b must be an integer, got True"),
    ],
)
def test_spec_refuses_non_integer_counts(kwargs, message):
    # an integral float passes a range check and a divisibility check, and
    # build_transition then fails on it with a bare TypeError
    with pytest.raises(InvalidSpec, match=message):
        ContaminationSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(family="rr", k=4, eps=True), "eps must be a real number, got True"),
        (dict(family="rr", k=4, eps="0.1"), "eps must be a real number, got '0.1'"),
        (dict(family="two_level_rr", k=4, eps=0.1, nu=True), "nu must be a real number, got True"),
        (dict(family="two_level_rr", k=4, eps=0.1, nu=None), "nu must be a real number, got None"),
    ],
)
def test_spec_refuses_non_real_parameters(kwargs, message):
    # a bool passed the range check as 0 or 1; a string failed it with a TypeError
    with pytest.raises(InvalidSpec, match=message):
        ContaminationSpec(**kwargs)


def test_explicit_matrix_not_repaired():
    # off by 2e-6 in a column: rejected, never renormalized
    m = np.array([[0.5 + 2e-6, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidSpec, match="columns must sum to 1"):
        TransitionMatrix(m)


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_transition_matrix_refuses_non_finite_entries(cell):
    # the numerical inverse leaked scipy's ValueError from the LU
    t = np.array([[0.9, 0.2], [0.1, cell]])
    with pytest.raises(InvalidSpec, match="must be finite"):
        TransitionMatrix(t)


def test_transition_matrix_refuses_a_negative_entry():
    # columns that sum to 1 through a negative entry
    t = np.array([[1.1, 0.0], [-0.1, 1.0]])
    with pytest.raises(InvalidSpec, match="^T entries must be nonnegative$"):
        TransitionMatrix(t)


def test_transition_matrix_singular():
    with pytest.raises(SingularTransition):
        TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("name", ["W", "condition_number"])
def test_transition_matrix_takes_t_alone(name):
    # W and the condition number are derived from T, never passed in
    with pytest.raises(TypeError, match=name):
        TransitionMatrix(T=np.eye(2), **{name: np.eye(2)})


def test_replacing_t_derives_w_afresh():
    tm = build_transition(rr(3, 0.2))
    other = dataclasses.replace(tm, T=reference_family_matrix(rr(3, 0.5)))
    assert np.array_equal(other.W, build_transition(rr(3, 0.5)).W)
    assert other.condition_number == build_transition(rr(3, 0.5)).condition_number


def _symmetric2(d):
    return np.array([[0.5 + d, 0.5 - d], [0.5 - d, 0.5 + d]])


@pytest.mark.parametrize(
    "t, transition_error, mixing_error",
    [
        (_symmetric2(0.0), "numerically singular", True),
        (
            np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.3], [0.0, 0.0, 0.5]]),
            "numerically singular",
            True,
        ),
        (_symmetric2(1e-13), "numerically singular", True),
        # condition number 5e8: certified, though W T misses I by 7e-9
        (_symmetric2(1e-9), None, False),
        # randomized response at eps = 0.999999, K = 3: condition number 1e6
        (1e-6 * np.eye(3) + 0.999999 / 3.0, None, False),
    ],
    ids=["exact-2x2", "dependent-3x3", "2x2-1e-13", "2x2-1e-9", "rr-eps-0.999999"],
)
def test_near_singular_matrices_keep_their_outcomes(t, transition_error, mixing_error):
    k = t.shape[0]
    rho = np.full(k, 1.0 / k)
    rho_tilde = t @ rho
    if transition_error is None:
        tm = TransitionMatrix(t)
        # W inverts T to working precision: K u ||W||inf ||T||inf
        norms = np.linalg.norm(tm.W, np.inf) * np.linalg.norm(tm.T, np.inf)
        assert np.max(np.abs(tm.W @ tm.T - np.eye(k))) <= k * 2.0**-53 * norms
    else:
        with pytest.raises(SingularTransition, match=transition_error):
            TransitionMatrix(t)
    args = (100, k, t, rho, rho_tilde, 0.1, 0.1)
    if mixing_error:
        with pytest.raises(SingularM):
            upper_bound_diagnostics(*args)
    else:
        assert np.isfinite(upper_bound_diagnostics(*args)["phi_n"])


@pytest.mark.parametrize(
    "t", [np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.8]]), np.array([1.0]), np.zeros((0, 0))]
)
def test_transition_matrix_refuses_non_square(t):
    with pytest.raises(InvalidSpec, match="square"):
        TransitionMatrix(t)


def test_sample_noisy_identity():
    y = np.arange(4).repeat(25)
    tm = build_transition(rr(4, 0.0))
    assert np.array_equal(sample_noisy_labels(y, tm, seed=3), y)


@pytest.mark.parametrize("labels", [[0.7, 1.2, 2.9], [0.0, 1.0, 2.0]])
def test_sample_noisy_rejects_float_labels(labels):
    # a float label is not silently truncated to its integer part
    with pytest.raises(InvalidSpec, match="true_labels must be integers"):
        sample_noisy_labels(np.array(labels), build_transition(rr(3, 0.1)), seed=0)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")],
)
def test_sample_noisy_rejects_bad_seed(seed, message):
    with pytest.raises(InvalidSpec, match=message):
        sample_noisy_labels(np.arange(3), build_transition(rr(3, 0.1)), seed=seed)


def test_sample_noisy_marginal_frequency():
    # RR K=2 eps=0.5: P(keep label) = 0.75
    tm = build_transition(rr(2, 0.5))
    y = np.zeros(100_000, dtype=np.int64)
    noisy = sample_noisy_labels(y, tm, seed=17)
    freq = float((noisy == 0).mean())
    assert abs(freq - 0.75) <= 0.01


def test_sample_noisy_deterministic():
    y = np.array([0, 1, 2, 3] * 10)
    tm = build_transition(rr(4, 0.3))
    a = sample_noisy_labels(y, tm, seed=5)
    b = sample_noisy_labels(y, tm, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_noisy_labels(y, tm, seed=6))


def test_condition_number_surfaces():
    # read off the block form's eigenvalues, it agrees with an SVD
    for spec in family_grid():
        tm = build_transition(spec)
        assert tm.condition_number <= 1e6, spec
        assert tm.condition_number == pytest.approx(np.linalg.cond(tm.T), rel=1e-12), spec


@st.composite
def parametric_specs(draw, eps=st.floats(min_value=0.0, max_value=0.9)):
    family = draw(
        st.sampled_from([Family.RANDOMIZED_RESPONSE, Family.BLOCK_RR, Family.TWO_LEVEL_RR])
    )
    eps = draw(eps)
    if family is Family.BLOCK_RR:
        b = draw(st.integers(min_value=1, max_value=5))
        k = b * draw(st.integers(min_value=1, max_value=5))
        return ContaminationSpec(family=family, k=k, eps=eps, b=b)
    if family is Family.TWO_LEVEL_RR:
        k = 2 * draw(st.integers(min_value=1, max_value=10))
        nu = draw(st.floats(min_value=0.0, max_value=1.0))
        return ContaminationSpec(family=family, k=k, eps=eps, nu=nu)
    k = draw(st.integers(min_value=1, max_value=20))
    return ContaminationSpec(family=family, k=k, eps=eps)


@given(parametric_specs())
# nu = 1e-12: W's reading, within 1e-12, would take T for one block, whose
# closed-form W missed I by 2.5e-13; T is read as two blocks
@example(ContaminationSpec(family=Family.TWO_LEVEL_RR, k=4, eps=0.5, nu=1e-12))
def test_closed_form_inverse_inverts_built_transition_property(spec):
    w = closed_form_inverse(spec).W
    t = build_transition(spec).T
    assert np.max(np.abs(w @ t - np.eye(spec.k))) <= 1e-10


@given(
    parametric_specs(eps=st.just(0.0)),
    st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_noisy_is_identity_without_noise_property(spec, draws, seed):
    y = np.array(draws) % spec.k
    assert np.array_equal(sample_noisy_labels(y, build_transition(spec), seed=seed), y)


@st.composite
def column_stochastic(draw):
    """A random T, diagonally dominant by columns so that it inverts."""
    k = draw(st.integers(min_value=1, max_value=8))
    raw = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    ).reshape(k, k) + k * np.eye(k)
    return raw / raw.sum(axis=0)


@given(
    st.one_of(parametric_specs(), column_stochastic()),
    st.lists(st.integers(min_value=0, max_value=1_000), max_size=200),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_noisy_matches_per_sample_cdf_property(model, draws, seed):
    # the K x n per-sample CDF the sampler once built gives the same labels
    if isinstance(model, np.ndarray):
        tm = TransitionMatrix(model)
    else:
        tm = build_transition(model)
    y = np.array(draws, dtype=np.int64) % tm.k
    got = sample_noisy_labels(y, tm, seed=seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_noisy_labels(y, tm.T, seed))


def _relabelled(spec, seed):
    """A family's T as stored, its labels permuted at random."""
    perm = np.random.default_rng(seed).permutation(spec.k)
    return reference_family_matrix(spec)[np.ix_(perm, perm)]


def _skewed2(a, d):
    """A 2 x 2 channel of determinant d, with no block form unless a = (1 + d)/2."""
    return np.array([[a, a - d], [1.0 - a, 1.0 - a + d]])


CHANNELS = st.one_of(
    st.builds(
        _relabelled,
        st.one_of(
            parametric_specs(eps=st.floats(0.0, 1.0 - 1e-13)),
            st.builds(
                ladder_spec,
                st.sampled_from(FAMILIES),
                st.sampled_from([4, 12, 60]),
                st.sampled_from(NEAR_ONE),
            ),
        ),
        st.integers(0, 2**32 - 1),
    ),
    column_stochastic(),
    st.builds(skewed_channel, st.sampled_from([4, 12, 60]), st.sampled_from(SKEWED_EPS)),
    st.builds(_symmetric2, st.floats(1e-13, 0.5)),
    st.builds(_skewed2, st.floats(0.5, 1.0), st.floats(1e-13, 0.5)),
)


@given(CHANNELS)
@example(_symmetric2(1e-9))
@example(reference_family_matrix(ladder_spec("two_level_rr", 60, 1e-11)))
def test_certified_w_inverts_t_to_working_precision_property(t):
    # max|W T - I| <= 2 K u ||W||inf ||T||inf for every certified T: the
    # rounding of the product (gamma_K |W| |T|) plus W times a backward
    # error of K u max|T|, the closed form's reading tolerance and what an
    # LU inverse may carry
    try:
        tm = TransitionMatrix(t)
    except SingularTransition:
        return
    k = tm.k
    resid = np.max(np.abs(tm.W @ tm.T - np.eye(k)))
    norms = np.linalg.norm(tm.W, np.inf) * np.linalg.norm(tm.T, np.inf)
    assert resid <= 2 * k * 2.0**-53 * norms
