import numpy as np
import pytest
from hypothesis import given
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
    sample_noisy_labels,
    transition_from_matrix,
    upper_bound_diagnostics,
)
from oracles import (
    family_grid,
    gauss_inverse,
    reference_family_inverse,
    reference_family_matrix,
    reference_noisy_labels,
    two_level_constants,
)


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
    # the numerical inverse of this T misses I by ~1e-7 and is refused; the
    # family's channel takes the analytic W, which passes the residual check
    spec = ContaminationSpec(family=family, k=4, eps=1.0 - 1e-10, nu=nu)
    tm = build_transition(spec)
    assert np.max(np.abs(tm.W @ tm.T - np.eye(4))) <= 1e-10
    assert tm.condition_number > 1e9
    with pytest.raises(SingularTransition, match="inverse residual"):
        transition_from_matrix(tm.T)


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
        transition_from_matrix(m)


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_transition_matrix_refuses_non_finite_entries(cell):
    # transition_from_matrix leaked scipy's ValueError from the LU
    t = np.array([[0.9, 0.2], [0.1, cell]])
    with pytest.raises(InvalidSpec, match="must be finite"):
        transition_from_matrix(t)
    with pytest.raises(InvalidSpec, match="must be finite"):
        TransitionMatrix(T=t, W=np.eye(2))
    with pytest.raises(InvalidSpec, match="must be finite"):
        TransitionMatrix(T=np.eye(2), W=t)


def test_transition_from_matrix_singular():
    with pytest.raises(SingularTransition):
        transition_from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


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
        # condition number 5e8: invertible, but W T misses I by more than 1e-10
        (_symmetric2(1e-9), "inverse residual", False),
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
        tm = transition_from_matrix(t)
        assert np.max(np.abs(tm.W @ tm.T - np.eye(k))) <= 1e-10
    else:
        with pytest.raises(SingularTransition, match=transition_error):
            transition_from_matrix(t)
    args = (100, k, t, rho, rho_tilde, 0.1, 0.1)
    if mixing_error:
        with pytest.raises(SingularM):
            upper_bound_diagnostics(*args)
    else:
        assert np.isfinite(upper_bound_diagnostics(*args)["phi_n"])


@pytest.mark.parametrize(
    "t", [np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.8]]), np.array([1.0]), np.zeros((0, 0))]
)
def test_transition_from_matrix_refuses_non_square(t):
    with pytest.raises(InvalidSpec, match="square"):
        transition_from_matrix(t)


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
    tm = build_transition(rr(4, 0.1))
    assert tm.condition_number == pytest.approx(np.linalg.cond(tm.T), rel=1e-12)


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
        tm = transition_from_matrix(model)
    else:
        tm = build_transition(model)
    y = np.array(draws, dtype=np.int64) % tm.k
    got = sample_noisy_labels(y, tm, seed=seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_noisy_labels(y, tm.T, seed))
