import dataclasses

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
from cinestat.data_pipeline import ClassLabel


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

    def test_column_mismatch_on_predict(self):
        model = OrdinalSvmModel(np.array([1.0]), b1=-1.0, b2=1.0)
        with pytest.raises(ValueError):
            ordinal_svm_predict(model, [[1.0, 2.0]])


def reference_svm_fit(X, labels, C, epochs, seed):
    """The all-threshold subgradient loop in its array form (a 2-element
    threshold array, one numpy update per hinge term), which ordinal_svm_fit
    must match bit for bit.  Also counts the steps in which one row paid
    hinge terms of both signs."""
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


class TestOrdinalSvmMatchesReferenceLoop:
    @pytest.mark.parametrize("C", [1.0, 0.37])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical(self, C, seed):
        # a narrow middle class keeps the thresholds within one margin of
        # each other, so class-1 rows pay a +1 and a -1 hinge term in one step
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 3.0, size=120)
        y = np.where(x < -0.3, 0, np.where(x < 0.3, 1, 2))
        X = np.column_stack([x + rng.normal(0, 0.3, 120), rng.normal(size=(120, 3))])
        labels = [ClassLabel(int(v)) for v in y]
        w, b1, b2, trace, mixed_steps = reference_svm_fit(X, labels, C, epochs=6, seed=seed)
        assert mixed_steps >= 10
        model = ordinal_svm_fit(X, labels, C=C, epochs=6, seed=seed)
        np.testing.assert_array_equal(model.weights, w)
        assert model.b1 == b1
        assert model.b2 == b2
        assert model.objective_trace == trace
