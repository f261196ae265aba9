"""Tests for the synthetic data generator and the softmax classifier."""

import math

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# softmax training
# ---------------------------------------------------------------------------


def separable_data(seed=0, n=400):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = (4.0 * y - 2.0)[:, None] + 0.5 * rng.standard_normal((n, 1))
    return x, y


def test_train_softmax_separable_problem():
    x, y = separable_data()
    model = train_softmax(x, y, iters=300)
    acc = float((predict_probs(model, x).argmax(axis=1) == y).mean())
    assert acc >= 0.95
    assert model.final_loss < math.log(2.0)


def test_train_softmax_null_signal_recovers_class_frequencies():
    # features independent of labels: the best model predicts the marginals
    rng = np.random.default_rng(1)
    n = 10_000
    y = (rng.uniform(size=n) < 0.3).astype(np.int64)
    x = rng.standard_normal((n, 3))
    model = train_softmax(x, y, iters=200)
    probs = predict_probs(model, x)
    assert abs(float(probs[:, 1].mean()) - float(y.mean())) <= 0.02
    assert float(np.abs(probs[:, 1] - y.mean()).max()) <= 0.05


def test_train_softmax_zero_iterations_is_uniform():
    x, y = separable_data()
    model = train_softmax(x, y, iters=0)
    assert model.iterations == 0
    assert np.all(model.weights == 0.0)
    assert model.final_loss == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.all(predict_probs(model, x) == 0.5)


def test_train_softmax_loss_never_increases():
    x, y = separable_data(seed=3)
    losses = [train_softmax(x, y, iters=i).final_loss for i in (0, 5, 20, 80)]
    assert losses == sorted(losses, reverse=True)


def test_train_softmax_extra_classes_widen_output():
    x, y = separable_data()
    model = train_softmax(x, y, n_classes=4, iters=10)
    assert predict_probs(model, x).shape == (x.shape[0], 4)


def test_train_softmax_validation():
    x, y = separable_data()
    with pytest.raises(DegenerateData):
        train_softmax(x, np.zeros(x.shape[0], dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        train_softmax(x, y[:-1])
    with pytest.raises(DimensionMismatch):
        train_softmax(x.ravel(), y)
    with pytest.raises(InvalidSpec):
        train_softmax(x, y, iters=-1)
    with pytest.raises(InvalidSpec):
        train_softmax(x, y, lr=0.0)
    with pytest.raises(InvalidSpec):
        train_softmax(x, y, n_classes=1)


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
