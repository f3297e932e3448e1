import dataclasses
import pathlib

import numpy as np
import pytest

from cinestat.classifiers import (
    KMeansModel,
    OrdinalSvmModel,
    _ordinal_objective,
    kmeans_classify,
    kmeans_fit,
    ordinal_svm_fit,
    ordinal_svm_predict,
)
from cinestat.config import RunConfig
from cinestat.data_pipeline import ClassLabel, load_movies, make_binner, split_by_year
from cinestat.pipeline import _scaled_training

FIXTURE_CSV = pathlib.Path(__file__).resolve().parents[1] / "src/cinestat/data/movies_fixture.csv"


def three_blobs(seed=0, per=30, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.vstack([rng.normal(c, spread, (per, 2)) for c in centers])
    labels = [ClassLabel(i) for i in range(3) for _ in range(per)]
    return X, labels, centers


class TestKMeansFit:
    def test_recovers_separated_centroids(self):
        X, _, centers = three_blobs()
        model = kmeans_fit(X, k=3, seed=0)
        # each true center has a fitted centroid within the blob spread
        for c in centers:
            assert np.min(np.linalg.norm(model.centroids - c, axis=1)) < 0.5

    def test_deterministic_given_seed(self):
        X, _, _ = three_blobs(seed=2)
        a = kmeans_fit(X, k=3, seed=7)
        b = kmeans_fit(X, k=3, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_inertia_equals_assignment_cost(self):
        X, _, _ = three_blobs(seed=3)
        model = kmeans_fit(X, k=3, seed=0)
        cost = sum(
            float(np.sum((x - model.centroids[j]) ** 2))
            for x, j in zip(X, model.assignments)
        )
        assert model.inertia == pytest.approx(cost, rel=1e-12)

    def test_assignments_are_nearest_centroid(self):
        X, _, _ = three_blobs(seed=4)
        model = kmeans_fit(X, k=3, seed=1)
        d2 = ((X[:, None] - model.centroids[None]) ** 2).sum(-1)
        np.testing.assert_array_equal(model.assignments, d2.argmin(axis=1))

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 2))
        one = kmeans_fit(X, k=4, seed=5, restarts=1)
        many = kmeans_fit(X, k=4, seed=5, restarts=10)
        assert many.inertia <= one.inertia + 1e-12

    def test_k_exceeds_points(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((2, 2)), k=3)

    def test_duplicate_points_handled(self):
        X = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        model = kmeans_fit(X, k=2, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-20)


class TestKMeansClassify:
    def test_majority_mapping_on_blobs(self):
        X, labels, _ = three_blobs(seed=5)
        model = kmeans_fit(X, k=3, seed=0)
        preds = kmeans_classify(model, labels, X)
        correct = sum(p == t for p, t in zip(preds, labels))
        assert correct / len(labels) > 0.95
        # each of the 3 clusters has a class, a different one for each blob
        assert sorted(model.cluster_to_class.tolist()) == [0, 1, 2]

    def test_tie_goes_to_lower_class(self):
        # one cluster, evenly split between NEUTRAL and HIT -> FLOP absent,
        # min of the tied pair is NEUTRAL
        X = np.zeros((4, 1))
        model = KMeansModel(
            centroids=np.zeros((1, 1)), inertia=0.0,
            assignments=np.zeros(4, dtype=int),
        )
        labels = [ClassLabel.NEUTRAL, ClassLabel.HIT, ClassLabel.NEUTRAL, ClassLabel.HIT]
        preds = kmeans_classify(model, labels, X)
        assert preds.tolist() == [ClassLabel.NEUTRAL] * 4

    def test_cluster_without_training_member_maps_to_flop(self):
        X = np.array([[0.0], [0.2], [10.0], [10.2]])
        model = kmeans_fit(X, k=2, seed=0)
        near, far = model.assignments[0], model.assignments[2]
        # every training point sits in the first point's cluster
        model = dataclasses.replace(model, assignments=np.full(4, near))
        preds = kmeans_classify(model, [ClassLabel.HIT] * 4, X)
        assert model.cluster_to_class[far] == ClassLabel.FLOP
        assert [int(p) for p in preds] == [ClassLabel.HIT] * 2 + [ClassLabel.FLOP] * 2

    def test_label_length_mismatch(self):
        X, labels, _ = three_blobs(seed=6)
        model = kmeans_fit(X, k=3, seed=0)
        with pytest.raises(ValueError):
            kmeans_classify(model, labels[:-1], X)

    def test_test_points_use_nearest_centroid(self):
        X, labels, centers = three_blobs(seed=7)
        model = kmeans_fit(X, k=3, seed=0)
        kmeans_classify(model, labels, X)
        # probe points sitting exactly on the true centers
        preds = kmeans_classify(model, labels, centers)
        assert preds.tolist() == [ClassLabel.FLOP, ClassLabel.NEUTRAL, ClassLabel.HIT]


def ordinal_data(seed=0, n=150, noise=0.1):
    """1-D scores with ordered classes: x < -1 FLOP, -1..1 NEUTRAL, > 1 HIT."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=n)
    y = np.where(x < -1.0, 0, np.where(x < 1.0, 1, 2))
    X = np.column_stack([x + rng.normal(0, noise, n), rng.normal(size=n)])
    labels = [ClassLabel(int(v)) for v in y]
    return X, labels


class TestOrdinalSvm:
    def test_learns_ordered_thresholds(self):
        X, labels = ordinal_data()
        model = ordinal_svm_fit(X, labels, C=1.0, epochs=80, seed=0)
        assert model.b1 < model.b2
        preds = ordinal_svm_predict(model, X)
        acc = sum(p == t for p, t in zip(preds, labels)) / len(labels)
        assert acc > 0.85

    def test_deterministic(self):
        X, labels = ordinal_data(seed=1)
        a = ordinal_svm_fit(X, labels, epochs=10, seed=3)
        b = ordinal_svm_fit(X, labels, epochs=10, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert (a.b1, a.b2) == (b.b1, b.b2)
        assert a.objective_trace == b.objective_trace

    def test_trace_length_and_trend(self):
        X, labels = ordinal_data(seed=2)
        model = ordinal_svm_fit(X, labels, epochs=40, seed=0)
        assert len(model.objective_trace) == 40
        # the averaged iterate's objective must end below its early value
        assert model.objective_trace[-1] < model.objective_trace[0]

    def test_final_objective_matches_parameters(self):
        X, labels = ordinal_data(seed=3)
        model = ordinal_svm_fit(X, labels, C=0.5, epochs=15, seed=0)
        y = [int(l) for l in labels]
        ref = _ordinal_objective(X, y, model.weights, [model.b1, model.b2], 0.5)
        # trace stores the pre-sort thresholds; equal when already ordered
        assert model.objective_trace[-1] == pytest.approx(ref, rel=1e-9)

    def test_prediction_rule(self):
        model = OrdinalSvmModel(np.array([1.0]), b1=-1.0, b2=1.0)
        preds = ordinal_svm_predict(model, [[-2.0], [0.0], [2.0]])
        assert preds.tolist() == [ClassLabel.FLOP, ClassLabel.NEUTRAL, ClassLabel.HIT]

    def test_boundary_inclusive_on_upper_side(self):
        model = OrdinalSvmModel(np.array([1.0]), b1=-1.0, b2=1.0)
        assert ordinal_svm_predict(model, [[1.0]]) == [ClassLabel.HIT]
        assert ordinal_svm_predict(model, [[-1.0]]) == [ClassLabel.NEUTRAL]

    def test_requires_all_classes(self):
        X = np.zeros((4, 1))
        labels = [ClassLabel.FLOP, ClassLabel.FLOP, ClassLabel.HIT, ClassLabel.HIT]
        with pytest.raises(ValueError):
            ordinal_svm_fit(X, labels)

    def test_invalid_hyperparameters(self):
        X, labels = ordinal_data(seed=4, n=30)
        with pytest.raises(ValueError):
            ordinal_svm_fit(X, labels, C=0.0)
        with pytest.raises(ValueError):
            OrdinalSvmModel(np.array([1.0]), b1=1.0, b2=1.0)

    @pytest.mark.parametrize("n_labels, epochs, message", [
        (119, 10, "119 labels for 120 rows"),
        (121, 10, "121 labels for 120 rows"),
        (120, -1, "epochs must be >= 0, got -1"),
    ], ids=["fewer_labels", "more_labels", "negative_epochs"])
    def test_rejects_malformed_input_up_front(self, n_labels, epochs, message):
        X, labels = narrow_middle_data(0, 120)
        labels = (labels + labels[:1])[:n_labels]
        with pytest.raises(ValueError, match=message):
            ordinal_svm_fit(X, labels, epochs=epochs)

    def test_column_mismatch_on_predict(self):
        model = OrdinalSvmModel(np.array([1.0]), b1=-1.0, b2=1.0)
        with pytest.raises(ValueError):
            ordinal_svm_predict(model, [[1.0, 2.0]])


def reference_svm_fit(X, labels, C, epochs, seed):
    """The all-threshold subgradient loop in its array form (a 2-element
    threshold array, one numpy update per hinge term, the average advanced
    every step), which ordinal_svm_fit must match.  Also counts the steps in
    which one row paid hinge terms of both signs."""
    X = np.asarray(X, dtype=float)
    y = np.asarray([int(l) for l in labels])
    n, p = X.shape
    w = np.zeros(p)
    b = np.array([-1.0, 1.0])
    avg_w = np.zeros(p)
    avg_b = np.zeros(2)
    trace = []
    rng = np.random.default_rng(seed)
    t = 0
    mixed_steps = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (C * t)
            gw = w / n
            gb = np.zeros(2)
            score = float(X[i] @ w)
            for j in (1, 2):
                s = 1.0 if y[i] >= j else -1.0
                if 1.0 - s * (score - b[j - 1]) > 0.0:
                    gw -= C * s * X[i]
                    gb[j - 1] += C * s
            mixed_steps += bool(gb[0] > 0.0 > gb[1])
            w -= eta * gw
            b -= eta * gb
            avg_w += (w - avg_w) / t
            avg_b += (b - avg_b) / t
        trace.append(_ordinal_objective(X, y, avg_w, avg_b, C))
    b1, b2 = sorted(avg_b.tolist())
    return avg_w, b1, b2, trace, mixed_steps


def narrow_middle_data(seed, n):
    # a narrow middle class keeps the thresholds within one margin of each
    # other, so class-1 rows pay a +1 and a -1 hinge term in one step
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=n)
    y = np.where(x < -0.3, 0, np.where(x < 0.3, 1, 2))
    X = np.column_stack([x + rng.normal(0, 0.3, n), rng.normal(size=(n, 3))])
    return X, [ClassLabel(int(v)) for v in y]


def fixture_svm_inputs():
    """The SVM stage's standardized training rows and labels on the bundled
    fixture, with the default C, epoch count and seed."""
    config = RunConfig(dataset=str(FIXTURE_CSV))
    split = split_by_year(load_movies(config.dataset).records)
    _, X, y = _scaled_training(config.features["svm"], split.train.scored(), make_binner(*config.bin_thresholds))
    return X, y, config.svm_C, config.svm_epochs, config.seed


class TestOrdinalSvmMatchesReferenceLoop:
    """ordinal_svm_fit keeps w as sigma*v and its average as running sums, so
    it takes the reference loop's steps with other rounding: the weights
    within 1e-12 of their largest entry, the objective trace within 1e-12
    relative, and the thresholds, which only the hinge tests reach, bit for
    bit."""

    def assert_matches(self, X, labels, C, epochs, seed):
        w, b1, b2, trace, mixed_steps = reference_svm_fit(X, labels, C, epochs=epochs, seed=seed)
        model = ordinal_svm_fit(X, labels, C=C, epochs=epochs, seed=seed)
        np.testing.assert_allclose(model.weights, w, rtol=0.0, atol=1e-12 * np.abs(w).max())
        assert np.array([model.b1, model.b2]).tobytes() == np.array([b1, b2]).tobytes()
        np.testing.assert_allclose(model.objective_trace, trace, rtol=1e-12, atol=0.0)
        return mixed_steps

    @pytest.mark.parametrize("C", [1.0, 0.37])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, C, seed):
        X, labels = narrow_middle_data(seed, 120)
        assert self.assert_matches(X, labels, C, epochs=6, seed=seed) >= 10

    def test_one_epoch(self):
        X, labels = narrow_middle_data(2, 120)
        self.assert_matches(X, labels, 1.0, epochs=1, seed=2)

    @pytest.mark.parametrize("C", [1.0, 0.37])
    def test_row_count_coprime_with_the_others(self, C):
        # 97 rows, a prime: its epochs share no length factor with the 120-row cases
        X, labels = narrow_middle_data(3, 97)
        assert self.assert_matches(X, labels, C, epochs=7, seed=3) >= 10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weight_scale_reaches_zero_at_the_first_step(self, seed):
        # C*n = 1: the first step's decay factor 1 - eta/n is exactly 0
        C, n = 1 / 120, 120
        assert 1.0 - (1.0 / (C * 1.0)) / n == 0.0
        X, labels = narrow_middle_data(seed, n)
        assert self.assert_matches(X, labels, C, epochs=6, seed=seed) >= 10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weight_scale_rescaled_many_times(self, seed):
        # C*n = 0.12: the first 8 decay factors are negative and the product
        # of all 720 is about 4e-21, so the scale leaves [1e-4, 1e4] again and again
        C, n = 1e-3, 120
        assert [1.0 - (1.0 / (C * t)) / n < 0.0 for t in range(1, 10)] == [True] * 8 + [False]
        X, labels = narrow_middle_data(seed, n)
        assert self.assert_matches(X, labels, C, epochs=6, seed=seed) >= 10

    def test_fixture_svm_stage(self):
        X, y, C, epochs, seed = fixture_svm_inputs()
        assert epochs == 50
        self.assert_matches(X, y, C, epochs=epochs, seed=seed)

    def test_zero_epochs(self):
        X, labels = narrow_middle_data(0, 120)
        model = ordinal_svm_fit(X, labels, epochs=0)
        assert model.weights.tobytes() == np.zeros(4).tobytes()
        assert model.objective_trace == []
