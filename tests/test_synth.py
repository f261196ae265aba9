"""Tests for the synthetic data generator and the softmax classifier."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycal import (
    DegenerateData,
    DimensionMismatch,
    InsufficientVertices,
    InvalidSpec,
    SoftmaxModel,
    SynthConfig,
    generate,
    predict_probs,
    train_softmax,
)
from noisycal.synth import _CHUNK_ENTRIES, _DENSE_LIMIT, _cg_step, _hessian
from oracles import brute_hessian, softmax_objective, softmax_reference


def config(**kw):
    base = dict(k=4, d=6, n_train=100, n_cal=100, n_test=100, seed=0)
    base.update(kw)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generate_shapes_and_total():
    cfg = config(n_train=50, n_cal=30, n_test=20)
    assert cfg.n_total == 100
    x, y = generate(cfg)
    assert x.shape == (100, 6)
    assert y.shape == (100,)
    assert y.dtype == np.int64
    assert set(np.unique(y)) <= set(range(4))


def test_generate_deterministic_in_seed():
    a = generate(config(seed=42))
    b = generate(config(seed=42))
    c = generate(config(seed=43))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_generate_balanced_class_counts():
    cfg = config(k=4, d=6, n_train=2000, n_cal=1000, n_test=1000)
    _, y = generate(cfg)
    counts = np.bincount(y, minlength=4)
    # multinomial 3-sigma band around n/4
    tol = 3.0 * math.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 1000) <= tol)


def test_generate_imbalance_follows_geometric_decay():
    # mu = log 2 halves each successive class probability: rho = (2/3, 1/3)
    cfg = config(k=2, d=4, n_train=2000, n_cal=500, n_test=500, imbalance_mu=math.log(2.0))
    _, y = generate(cfg)
    counts = np.bincount(y, minlength=2)
    tol = 3.0 * math.sqrt(3000 * (2.0 / 3.0) * (1.0 / 3.0))
    assert abs(counts[0] - 3000 * 2.0 / 3.0) <= tol
    assert abs(counts[1] - 3000 / 3.0) <= tol


def test_generate_clusters_sit_on_hypercube_vertices():
    # single class, single cluster in 1-d: the center is +-cube_side/2 and
    # the noise is unit gaussian, so the sample mean locates the vertex
    cfg = SynthConfig(
        k=1, d=1, n_train=8000, n_cal=1000, n_test=1000, clusters_per_class=1, seed=5
    )
    x, y = generate(cfg)
    assert set(np.unique(y)) == {0}
    assert abs(abs(float(x.mean())) - 1.0) <= 4.0 / math.sqrt(cfg.n_total)


def test_generate_cube_side_scales_centers():
    cfg = SynthConfig(
        k=1, d=1, n_train=8000, n_cal=1000, n_test=1000, clusters_per_class=1,
        cube_side=10.0, seed=5,
    )
    x, _ = generate(cfg)
    assert abs(abs(float(x.mean())) - 5.0) <= 4.0 / math.sqrt(cfg.n_total)


def test_config_requires_enough_vertices():
    # 2 K cpc distinct vertices must fit in the 2^d hypercube
    with pytest.raises(InsufficientVertices):
        config(k=4, clusters_per_class=2, d=3)
    config(k=4, clusters_per_class=2, d=4)  # 16 == 2^4 fits


def test_config_validation():
    with pytest.raises(InvalidSpec):
        config(k=0)
    with pytest.raises(InvalidSpec):
        config(n_cal=0)
    with pytest.raises(InvalidSpec):
        config(cube_side=0.0)
    with pytest.raises(InvalidSpec):
        config(imbalance_mu=-0.5)
    with pytest.raises(InvalidSpec):
        config(k=2.5)
    with pytest.raises(InvalidSpec, match="n_train must be an integer, got 100.0"):
        config(n_train=100.0)
    with pytest.raises(InvalidSpec, match="d must be an integer, got True"):
        config(d=True)


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ],
)
def test_config_checks_the_seed(seed, message):
    # -1 and 1.5 once failed inside generate with numpy's bare ValueError or
    # TypeError, and True ran as seed 1
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        config(seed=seed)


# ---------------------------------------------------------------------------
# softmax training
# ---------------------------------------------------------------------------


def separable_data(seed=0, n=400):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = (4.0 * y - 2.0)[:, None] + 0.5 * rng.standard_normal((n, 1))
    return x, y


def assert_reference_optimum(model, x, y, l2=1e-3):
    # train_softmax against scipy's L-BFGS-B on the same objective and pin,
    # with the gradient recomputed outside the library
    k = model.weights.shape[1]
    ref_loss, _, ref_probs = softmax_objective(softmax_reference(x, y, l2, k), x, y, l2)
    loss, grad, _ = softmax_objective(model.weights, x, y, l2)
    assert float(np.abs(predict_probs(model, x) - ref_probs).max()) <= 1e-6
    assert abs(model.final_loss - ref_loss) <= 1e-10
    assert abs(loss - model.final_loss) <= 1e-12
    assert float(np.abs(grad).max()) <= 1e-6


def test_train_softmax_separable_problem():
    x, y = separable_data()
    model = train_softmax(x, y)
    acc = float((predict_probs(model, x).argmax(axis=1) == y).mean())
    assert acc >= 0.95
    assert model.final_loss < math.log(2.0)
    assert_reference_optimum(model, x, y)


def test_train_softmax_null_signal_recovers_class_frequencies():
    # features independent of labels: the best model predicts the marginals
    rng = np.random.default_rng(1)
    n = 10_000
    y = (rng.uniform(size=n) < 0.3).astype(np.int64)
    x = rng.standard_normal((n, 3))
    model = train_softmax(x, y)
    probs = predict_probs(model, x)
    assert abs(float(probs[:, 1].mean()) - float(y.mean())) <= 0.02
    assert float(np.abs(probs[:, 1] - y.mean()).max()) <= 0.05
    assert_reference_optimum(model, x, y)


def test_train_softmax_uninformative_balanced_data_is_uniform():
    # zero features and equal class counts: W = 0 is already the optimum
    x = np.zeros((8, 3))
    y = np.array([0, 1, 2, 3] * 2)
    model = train_softmax(x, y)
    assert model.iterations == 0
    assert np.all(model.weights == 0.0)
    assert model.final_loss == pytest.approx(math.log(4.0), abs=1e-12)
    assert np.all(predict_probs(model, x) == 0.25)


def test_train_softmax_loss_at_most_reference():
    x, y = separable_data(seed=3)
    model = train_softmax(x, y)
    reference = softmax_reference(x, y, 1e-3, 2)
    assert model.final_loss <= softmax_objective(reference, x, y, 1e-3)[0] + 1e-10


def test_train_softmax_extra_classes_widen_output():
    # classes 2 and 3 never occur, so their biases have no finite optimum:
    # the fit must still stop, with finite weights and vanishing probabilities
    x, y = separable_data()
    model = train_softmax(x, y, n_classes=4)
    probs = predict_probs(model, x)
    assert probs.shape == (x.shape[0], 4)
    assert np.all(np.isfinite(model.weights))
    assert float(probs[:, 2:].max()) < 1e-6


def test_hessian_matches_central_differences_of_the_gradient():
    # 8 classes and 15 features give 128 parameters, whose 600 rows fit in
    # one chunk; parameters are ordered class by class
    rng = np.random.default_rng(4)
    n, d, k, l2 = 600, 15, 8, 1e-3
    x = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)
    w = 0.3 * rng.standard_normal((d + 1, k))
    hess = _hessian(np.hstack([x, np.ones((n, 1))]), softmax_objective(w, x, y, l2)[2], l2)
    h = 1e-5
    numeric = np.empty_like(hess)
    for col in range(k * (d + 1)):
        shift = np.zeros_like(w)
        shift[col % (d + 1), col // (d + 1)] = h
        plus = softmax_objective(w + shift, x, y, l2)[1]
        minus = softmax_objective(w - shift, x, y, l2)[1]
        numeric[:, col] = ((plus - minus) / (2.0 * h)).T.ravel()
    assert float(np.abs(hess - numeric).max()) <= 1e-8


def near_one_probs(rng, n, k):
    # one class per row at 1 - 1e-12, the rest share r = 1 - p_near in
    # powers of two, so every row sums to exactly 1
    near = 1.0 - 1e-12
    r = 1.0 - near
    shares = r / 2.0 ** np.arange(1, k)
    shares[-1] *= 2.0
    probs = np.empty((n, k))
    for i in range(n):
        probs[i] = np.roll(np.append(near, shares), rng.integers(k))
    assert np.all(probs.sum(axis=1) == 1.0)
    return probs


@pytest.mark.parametrize(
    "n, d, k, near_one",
    [
        # 4 x 21 parameters make chunks of 1560 rows: one full and one of a row
        (_CHUNK_ENTRIES // 84 + 1, 20, 4, False),
        (50, 3, 2, False),
        (600, 3, 60, False),
        (40, 5, 4, True),
    ],
    ids=["ragged-chunk", "k2", "k60", "near-one"],
)
def test_hessian_matches_brute_force(n, d, k, near_one):
    # the cross-entropy part (l2 = 0) to 1e-13 of its largest entry: a block
    # built as B_c - G_cc loses ~1e-4 of it when p_ic = 1 - 1e-12
    rng = np.random.default_rng(n + k)
    x = rng.standard_normal((n, d))
    if near_one:
        probs = near_one_probs(rng, n, k)
    else:
        probs = rng.dirichlet(np.ones(k), size=n)
    xb = np.hstack([x, np.ones((n, 1))])
    cross = _hessian(xb, probs, 0.0)
    scale = float(np.abs(cross).max())
    assert float(np.abs(cross - brute_hessian(x, probs, 0.0)).max()) <= 1e-13 * scale
    hess = _hessian(xb, probs, 1e-3)
    ref = brute_hessian(x, probs, 1e-3)
    assert float(np.abs(hess - ref).max()) <= 1e-13 * float(np.abs(ref).max())
    assert float(np.abs(cross - cross.T).max()) <= 1e-14 * scale
    m = d + 1
    assert float(np.abs(cross.reshape(k, m, k, m).sum(axis=2)).max()) <= 1e-14 * scale
    eig = np.linalg.eigvalsh(cross)
    assert eig[0] >= -1e-14 * eig[-1]


def test_hessian_working_memory_is_two_matrices_and_one_chunk():
    # K = 60 and d = 12 give a 780 x 780 Hessian (4.6 MiB) and chunks of
    # 256 rows (1.5 MiB); the n = 5000 rows of A would take 30 MiB
    rng = np.random.default_rng(0)
    n, d, k = 5000, 12, 60
    xb = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
    probs = rng.dirichlet(np.ones(k), size=n)
    size = k * (d + 1)
    tracemalloc.start()
    try:
        _hessian(xb, probs, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * size**2 + 256 * size) * 8 + 2**20


@st.composite
def softmax_problems(draw):
    """(x, y, weights) with K(d+1) at most ``_DENSE_LIMIT`` (K = 2..10,
    d = 1..10) or just above it (d = 9..12): normal features at a drawn
    scale, every class labelled at least once, weights 0.3 times normal."""
    above = draw(st.booleans())
    if above:
        d = draw(st.integers(9, 12))
        k = _DENSE_LIMIT // (d + 1) + draw(st.integers(1, 4))
    else:
        d, k = draw(st.integers(1, 10)), draw(st.integers(2, 10))
    n = k + draw(st.integers(5, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    return x, y, 0.3 * rng.standard_normal((d + 1, k))


@settings(deadline=None, max_examples=25)
@given(softmax_problems())
def test_cg_step_solves_the_newton_system(problem):
    # against the brute-force Hessian and a dense solve of the system with
    # the last bias pinned: the step's residual meets the forcing tolerance
    x, y, w = problem
    _, grad, probs = softmax_objective(w, x, y, 1e-3)
    g = grad.T.ravel()
    step = _cg_step(np.hstack([x, np.ones((x.shape[0], 1))]), probs, g, 1e-3)
    hess = brute_hessian(x, probs, 1e-3)[:-1, :-1]
    exact = np.linalg.solve(hess, -g[:-1])
    gnorm = float(np.linalg.norm(g[:-1]))
    assert step[-1] == 0.0
    residual = float(np.linalg.norm(hess @ (step[:-1] - exact)))
    assert residual <= min(0.5, math.sqrt(gnorm)) * gnorm * (1.0 + 1e-6)


@settings(deadline=None, max_examples=10)
@given(softmax_problems())
def test_train_softmax_meets_the_gradient_tolerance_on_either_route(problem):
    # the stopping rule, read back through the oracle's own gradient, with
    # room for the oracle's rounding
    x, y, _ = problem
    model = train_softmax(x, y)
    loss, grad, _ = softmax_objective(model.weights, x, y, 1e-3)
    assert float(np.abs(grad).max()) <= 1.001e-9
    assert abs(loss - model.final_loss) <= 1e-12
    assert model.weights[-1, -1] == 0.0


@pytest.mark.parametrize("seed, d, k, n", [(711, 4, 6, 34), (1070, 2, 4, 27)])
def test_train_softmax_converges_where_the_loss_is_flat_to_rounding(seed, d, k, n):
    # problems whose last Newton steps lower the loss by less than its
    # rounding: Armijo alone accepted ever shorter steps of no measurable
    # progress and stopped after the step limit, the gradient above tolerance
    rng = np.random.default_rng(seed)
    rng.integers(1, 11), rng.integers(2, 11), rng.integers(5, 31)
    x = rng.standard_normal((n, d)) * [0.1, 1.0, 3.0][seed % 3]
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    model = train_softmax(x, y)
    _, grad, _ = softmax_objective(model.weights, x, y, 1e-3)
    assert float(np.abs(grad).max()) <= 1.001e-9
    assert model.iterations < 20


def cg_problem(k, d, n, seed, labelled=None):
    # Gaussian-cluster data with K(d+1) above the limit, labelled with the
    # first ``labelled`` classes only when given
    assert k * (d + 1) > _DENSE_LIMIT
    cfg = SynthConfig(k=labelled or k, d=d, n_train=n, n_cal=1, n_test=1, seed=seed)
    x, y = generate(cfg)
    return x[:n], y[:n]


def test_train_softmax_above_the_limit_matches_reference():
    x, y = cg_problem(24, 20, 600, seed=1)
    assert_reference_optimum(train_softmax(x, y, n_classes=24), x, y)


def test_train_softmax_above_the_limit_with_absent_classes():
    # classes 27..29 never occur: as on the dense route, the fit stops with
    # finite weights and their probabilities driven down
    x, y = cg_problem(30, 16, 600, seed=2, labelled=27)
    model = train_softmax(x, y, n_classes=30)
    probs = predict_probs(model, x)
    assert np.all(np.isfinite(model.weights))
    assert float(probs[:, 27:].max()) < 1e-6


def test_train_softmax_above_the_limit_never_forms_the_hessian():
    # K = 200 and d = 20 give 4200 parameters, whose Hessian alone would
    # take 135 MiB; the n x K arrays of 1000 rows take 1.5 MiB each
    x, y = cg_problem(200, 20, 1000, seed=3)
    size = 200 * 21
    tracemalloc.start()
    try:
        train_softmax(x, y, n_classes=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size**2 * 8 / 8  # an eighth of that one matrix


def test_train_softmax_validation():
    x, y = separable_data()
    with pytest.raises(DegenerateData):
        train_softmax(x, np.zeros(x.shape[0], dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        train_softmax(x, y[:-1])
    with pytest.raises(DimensionMismatch):
        train_softmax(x.ravel(), y)
    with pytest.raises(InvalidSpec):
        train_softmax(x, y, n_classes=1)


@pytest.mark.parametrize(
    "x3, y0, kwargs, match",
    [
        (None, -1, {}, r"labels must lie in \[0, 1\]"),
        (None, 0.5, {}, "labels must be integers"),
        (None, None, {"n_classes": 2.7}, "n_classes must be an integer"),
        (np.nan, None, {}, r"x entries must be finite; row 3, column 0 \(0-based\)"),
        (np.inf, None, {}, r"x entries must be finite; row 3, column 0 \(0-based\)"),
    ],
    ids=["label-minus-one", "float-label", "float-n_classes", "nan-x", "inf-x"],
)
def test_train_softmax_rejects_bad_input(x3, y0, kwargs, match):
    # x3 replaces row 3 of x, y0 the first label (in a float array if a float)
    x, y = separable_data()
    if x3 is not None:
        x[3] = x3
    if y0 is not None:
        y = y.astype(type(y0))
        y[0] = y0
    with pytest.raises(InvalidSpec, match=match):
        train_softmax(x, y, **kwargs)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_probs_rows_sum_to_one():
    rng = np.random.default_rng(2)
    model = SoftmaxModel(weights=rng.normal(size=(4, 5)), iterations=0, final_loss=0.0)
    probs = predict_probs(model, rng.normal(size=(50, 3)))
    assert probs.shape == (50, 5)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0)


def test_predict_probs_handles_huge_logits():
    model = SoftmaxModel(
        weights=np.array([[2000.0, -2000.0], [0.0, 0.0]]), iterations=0, final_loss=0.0
    )
    probs = predict_probs(model, np.array([[1.0], [-1.0]]))
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert probs[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_predict_probs_dimension_check():
    model = SoftmaxModel(weights=np.zeros((4, 2)), iterations=0, final_loss=0.0)
    with pytest.raises(DimensionMismatch):
        predict_probs(model, np.zeros((5, 7)))


def test_softmax_model_rejects_nonfinite_weights():
    with pytest.raises(InvalidSpec):
        SoftmaxModel(weights=np.array([[np.nan, 0.0]]), iterations=0, final_loss=0.0)


def test_softmax_model_weights_read_only():
    model = SoftmaxModel(weights=np.zeros((2, 2)), iterations=0, final_loss=0.0)
    with pytest.raises(ValueError):
        model.weights[0, 0] = 1.0
