import copy
import pathlib

import numpy as np
import pytest

from cinestat.config import RunConfig
from cinestat.data_pipeline import ClassLabel, load_movies, make_binner, split_by_year
from cinestat.neural import (
    BATCH_SIZE,
    BETA1,
    BETA2,
    EPS,
    LEARNING_RATE,
    PATIENCE,
    TOL,
    VALIDATION_FRACTION,
    MlpModel,
    mlp_accuracy,
    mlp_forward,
    mlp_gradients,
    mlp_init,
    mlp_loss,
    mlp_predict,
    mlp_train,
    one_hot,
)
from cinestat.pipeline import _scaled_training

FIXTURE_CSV = pathlib.Path(__file__).resolve().parents[1] / "src/cinestat/data/movies_fixture.csv"


def blob_data(seed=0, per=40, spread=0.5, n_features=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4, size=(3, n_features))
    X = np.vstack([rng.normal(c, spread, (per, n_features)) for c in centers])
    y = np.repeat([0, 1, 2], per)
    return X, y


class TestInit:
    def test_shapes_and_determinism(self):
        a = mlp_init(3, (5, 7, 3))
        b = mlp_init(3, (5, 7, 3))
        assert a.W1.shape == (5, 7) and a.W2.shape == (7, 3)
        assert a.b1.shape == (7,) and a.b2.shape == (3,)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)

    def test_glorot_bounds_and_zero_biases(self):
        model = mlp_init(1, (10, 20, 3))
        lim1 = np.sqrt(6.0 / 30)
        lim2 = np.sqrt(6.0 / 23)
        assert np.all(np.abs(model.W1) <= lim1)
        assert np.all(np.abs(model.W2) <= lim2)
        assert np.all(model.b1 == 0) and np.all(model.b2 == 0)

    def test_different_seeds_differ(self):
        assert not np.array_equal(mlp_init(0, (4, 5, 3)).W1, mlp_init(1, (4, 5, 3)).W1)


class TestForward:
    def test_rows_sum_to_one(self):
        model = mlp_init(0, (6, 8, 3))
        P = mlp_forward(model, np.random.default_rng(1).normal(size=(11, 6)))
        assert P.shape == (11, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P > 0)

    def test_wrong_width_rejected(self):
        model = mlp_init(0, (6, 8, 3))
        with pytest.raises(ValueError):
            mlp_forward(model, np.zeros((3, 5)))

    def test_softmax_shift_invariance(self):
        # adding a constant to all output biases leaves probabilities unchanged
        model = mlp_init(2, (4, 5, 3))
        X = np.random.default_rng(2).normal(size=(7, 4))
        P1 = mlp_forward(model, X)
        model.b2 = model.b2 + 100.0
        P2 = mlp_forward(model, X)
        np.testing.assert_allclose(P1, P2, atol=1e-12)


class TestLossAndLabels:
    def test_one_hot_roundtrip(self):
        labels = [ClassLabel.HIT, ClassLabel.FLOP, ClassLabel.NEUTRAL]
        Y = one_hot(labels)
        np.testing.assert_array_equal(Y, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_loss_uniform_predictions(self):
        # with zeroed parameters the softmax is uniform: loss = log 3
        model = mlp_init(0, (4, 5, 3))
        model.W1 *= 0.0
        model.W2 *= 0.0
        X = np.random.default_rng(3).normal(size=(10, 4))
        loss = mlp_loss(model, X, one_hot([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]))
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_non_onehot_rejected(self):
        model = mlp_init(0, (4, 5, 3))
        X = np.zeros((2, 4))
        with pytest.raises(ValueError):
            mlp_loss(model, X, np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))

    def test_loss_nonnegative(self):
        model = mlp_init(5, (4, 6, 3))
        X = np.random.default_rng(5).normal(size=(20, 4))
        Y = one_hot(np.random.default_rng(6).integers(0, 3, 20))
        assert mlp_loss(model, X, Y) >= 0.0


class TestGradients:
    def test_matches_central_finite_differences(self):
        model = mlp_init(7, (3, 4, 3))
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 3))
        Y = one_hot(rng.integers(0, 3, 6))
        grads = mlp_gradients(model, X, Y)
        h = 1e-5
        for param, grad in zip(model.parameters(), grads):
            flat = param.ravel()
            gflat = grad.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = mlp_loss(model, X, Y)
                flat[idx] = orig - h
                down = mlp_loss(model, X, Y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                assert abs(numeric - gflat[idx]) / denom < 1e-4

    def test_gradient_shapes(self):
        model = mlp_init(0, (5, 6, 3))
        X = np.zeros((4, 5))
        Y = one_hot([0, 1, 2, 0])
        grads = mlp_gradients(model, X, Y)
        for g, p in zip(grads, model.parameters()):
            assert g.shape == p.shape

    def test_zero_at_perfect_confident_fit(self):
        # saturate the output toward the true class: gradients shrink to ~0
        model = mlp_init(0, (2, 3, 3))
        model.W1 *= 0.0
        model.W2 *= 0.0
        model.b2 = np.array([50.0, 0.0, 0.0])
        X = np.ones((5, 2))
        Y = one_hot([0] * 5)
        grads = mlp_gradients(model, X, Y)
        assert all(np.max(np.abs(g)) < 1e-12 for g in grads)


class TestTrain:
    def test_learns_separable_blobs(self):
        X, y = blob_data(seed=0, per=60)
        model = mlp_init(0, (4, 20, 3))
        trained, trace = mlp_train(model, X, y, 200)
        assert mlp_accuracy(trained, X, y) > 0.95
        assert not trace.diverged
        assert 0 < len(trace.losses) <= 200

    def test_deterministic(self):
        X, y = blob_data(seed=1)
        a, ta = mlp_train(mlp_init(4, (4, 10, 3)), X, y, 30)
        b, tb = mlp_train(mlp_init(4, (4, 10, 3)), X, y, 30)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)
        assert ta.losses == tb.losses

    def test_early_stopping_on_random_labels(self):
        # unlearnable labels: validation loss stops improving and training
        # halts long before the epoch cap
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 3, 120)
        _, trace = mlp_train(mlp_init(0, (4, 10, 3)), X, y, 500)
        assert len(trace.losses) < 500

    def test_training_loss_falls_within_fifty_epochs(self):
        X, y = blob_data(seed=3)
        _, trace = mlp_train(mlp_init(0, (4, 12, 3)), X, y, 50)
        assert trace.losses[-1] < trace.losses[0]

    def test_input_model_untouched(self):
        X, y = blob_data(seed=4)
        model = mlp_init(0, (4, 8, 3))
        W1_before = model.W1.copy()
        mlp_train(model, X, y, 5)
        np.testing.assert_array_equal(model.W1, W1_before)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mlp_train(mlp_init(0, (4, 8, 3)), np.zeros((10, 4)), np.zeros(10, dtype=int))


class TestPredictAccuracy:
    def test_accuracy_hand_case(self):
        model = mlp_init(0, (2, 3, 3))
        model.W1 *= 0.0
        model.W2 *= 0.0
        model.b2 = np.array([0.0, 10.0, 0.0])  # always predicts class 1
        X = np.zeros((4, 2))
        assert mlp_accuracy(model, X, [1, 1, 0, 2]) == pytest.approx(0.5)

    def test_predict_returns_class_labels(self):
        model = mlp_init(0, (2, 3, 3))
        model.W1 *= 0.0
        model.W2 *= 0.0
        model.b2 = np.array([0.0, 0.0, 10.0])
        preds = mlp_predict(model, np.zeros((3, 2)))
        assert preds.tolist() == [ClassLabel.HIT] * 3

    def test_tie_goes_to_lower_index(self):
        model = mlp_init(0, (2, 3, 3))
        model.W1 *= 0.0
        model.W2 *= 0.0  # uniform probabilities: argmax -> class 0
        preds = mlp_predict(model, np.zeros((2, 2)))
        assert preds.tolist() == [ClassLabel.FLOP] * 2

    def test_empty_evaluation_rejected(self):
        model = mlp_init(0, (2, 3, 3))
        with pytest.raises(ValueError):
            mlp_accuracy(model, np.zeros((0, 2)), [])


# The MLP as it was first written, one allocating expression per step and
# one Adam update per parameter: the bit oracle for the in-place passes and
# the flat parameter vector.


def reference_forward(model, X):
    X = np.asarray(X, dtype=float)
    hidden = 1.0 / (1.0 + np.exp(-np.clip(X @ model.W1 + model.b1, -500, 500)))
    z = hidden @ model.W2 + model.b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return hidden, e / e.sum(axis=1, keepdims=True)


def reference_loss(model, X, Y):
    P = np.clip(reference_forward(model, X)[1], 1e-15, 1.0)
    return float(-np.sum(Y * np.log(P)) / Y.shape[0])


def reference_gradients(model, X, Y):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    hidden, P = reference_forward(model, X)
    d_out = (P - Y) / n
    gW2 = hidden.T @ d_out
    gb2 = d_out.sum(axis=0)
    d_hidden = (d_out @ model.W2.T) * hidden * (1.0 - hidden)
    gW1 = X.T @ d_hidden
    gb1 = d_hidden.sum(axis=0)
    return [gW1, gb1, gW2, gb2]


def reference_train(model, X, labels, max_epochs):
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    n = X.shape[0]
    model = copy.deepcopy(model)
    order = np.random.default_rng(model.seed).permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    Xt, yt = X[order[:-n_val]], y[order[:-n_val]]
    Xv, yv = X[order[-n_val:]], y[order[-n_val:]]
    Yt = one_hot(yt)
    m = [np.zeros_like(p) for p in model.parameters()]
    v = [np.zeros_like(p) for p in model.parameters()]
    t = 0
    losses, best_score, best_params, stall, stopped, diverged = [], -np.inf, None, 0, 0, False
    for epoch in range(1, max_epochs + 1):
        shuffle = np.random.default_rng(np.random.SeedSequence([model.seed, epoch]))
        idx = shuffle.permutation(len(Xt))
        for start in range(0, len(Xt), BATCH_SIZE):
            batch = idx[start : start + BATCH_SIZE]
            grads = reference_gradients(model, Xt[batch], Yt[batch])
            t += 1
            params = model.parameters()
            for k, g in enumerate(grads):
                m[k] = BETA1 * m[k] + (1 - BETA1) * g
                v[k] = BETA2 * v[k] + (1 - BETA2) * g * g
                m_hat = m[k] / (1 - BETA1**t)
                v_hat = v[k] / (1 - BETA2**t)
                params[k] -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPS)
        loss = reference_loss(model, Xt, Yt)
        losses.append(loss)
        stopped = epoch
        if not np.isfinite(loss):
            diverged = True
            break
        score = -reference_loss(model, Xv, one_hot(yv))
        if score > best_score + TOL:
            best_score, best_params, stall = score, [p.copy() for p in model.parameters()], 0
        else:
            stall += 1
        if stall >= PATIENCE:
            break
    if best_params is None:
        best_score = 0.0
    else:
        model.W1, model.b1, model.W2, model.b2 = best_params
    return model, losses, stopped, best_score, diverged


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fixture_ann_inputs():
    """The ANN stage's standardized training rows and labels on the bundled
    fixture, with its initial model and epoch cap."""
    config = RunConfig(dataset=str(FIXTURE_CSV))
    split = split_by_year(load_movies(config.dataset).records)
    feats = config.features["ann"]
    _, X, y = _scaled_training(feats, split.train.scored(), make_binner(*config.bin_thresholds))
    return mlp_init(config.seed, (len(feats), 100, 3)), X, y, config.mlp_max_epochs


def ragged_inputs():
    # 300 rows: 270 training rows, so each epoch ends on a batch of 14
    X, y = blob_data(seed=11, per=100, spread=2.0, n_features=5)
    assert (len(X) - round(VALIDATION_FRACTION * len(X))) % BATCH_SIZE != 0
    return mlp_init(3, (5, 16, 3)), X, y, 40


def early_stopping_inputs():
    rng = np.random.default_rng(9)
    return mlp_init(0, (4, 10, 3)), rng.normal(size=(150, 4)), rng.integers(0, 3, 150), 500


def diverging_inputs():
    X, y = blob_data(seed=5)
    X[7, 2] = np.nan
    return mlp_init(1, (4, 8, 3)), X, y, 20


class TestBitsMatchTheReference:
    @pytest.mark.parametrize(
        "inputs",
        [fixture_ann_inputs, ragged_inputs, early_stopping_inputs, diverging_inputs],
        ids=lambda f: f.__name__,
    )
    def test_train(self, inputs):
        model, X, y, max_epochs = inputs()
        expected, losses, stopped, best_score, diverged = reference_train(model, X, y, max_epochs)
        trained, trace = mlp_train(model, X, y, max_epochs)
        for got, want in zip(trained.parameters(), expected.parameters()):
            assert same_bits(got, want)
        assert same_bits(trace.losses, losses)
        assert len(trace.losses) == stopped
        assert same_bits(trace.best_validation_score, best_score)
        assert trace.diverged == diverged
        if inputs is early_stopping_inputs:
            assert stopped < max_epochs and not diverged
        if inputs is diverging_inputs:
            assert diverged and stopped == 1

    def test_forward_loss_and_gradients_beyond_the_clip(self):
        model = mlp_init(2, (6, 9, 3))
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        X[:8] *= 1e4  # their logits pass the clip at +-500
        Y = one_hot(rng.integers(0, 3, 40))
        hidden, P = reference_forward(model, X)
        z = X @ model.W1 + model.b1
        assert (z > 500).any() and (z < -500).any()
        assert same_bits(mlp_forward(model, X), P)
        assert same_bits(mlp_loss(model, X, Y), reference_loss(model, X, Y))
        for got, want in zip(mlp_gradients(model, X, Y), reference_gradients(model, X, Y)):
            assert same_bits(got, want)

    def test_passes_leave_the_model_unchanged(self):
        model = mlp_init(2, (6, 9, 3))
        before = [p.copy() for p in model.parameters()]
        X = np.random.default_rng(5).normal(size=(12, 6))
        Y = one_hot(np.arange(12) % 3)
        mlp_forward(model, X)
        mlp_loss(model, X, Y)
        mlp_gradients(model, X, Y)
        for p, b in zip(model.parameters(), before):
            assert same_bits(p, b)

    def test_trained_model_shares_no_memory_with_the_callers(self):
        model, X, y, _ = ragged_inputs()
        trained, _ = mlp_train(model, X, y, 3)
        for p in trained.parameters():
            assert not any(np.shares_memory(p, q) for q in model.parameters())
