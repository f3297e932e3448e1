"""K-means used as a three-class classifier, and an ordinal three-class SVM
with one shared weight vector and two ordered thresholds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KMEANS_MAX_ITER = 300
DEFAULT_RESTARTS = 10
DEFAULT_SEED = 0


@dataclass
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    assignments: np.ndarray  # training-point cluster indices
    cluster_to_class: np.ndarray | None = None  # class label per cluster, set by kmeans_classify


@dataclass
class OrdinalSvmModel:
    weights: np.ndarray
    b1: float
    b2: float
    objective_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.b1 < self.b2:
            raise ValueError("thresholds must satisfy b1 < b2")


def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    idx = d2.argmin(axis=1)
    return idx, d2[np.arange(X.shape[0]), idx]


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
        else:
            centroids[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    prev_inertia = np.inf
    assignments = None
    for _ in range(KMEANS_MAX_ITER):
        new_assignments, d2 = _assign(X, centroids)
        inertia = float(d2.sum())
        if inertia > prev_inertia + 1e-9 * (1.0 + prev_inertia):
            raise RuntimeError(f"k-means inertia increased from {prev_inertia} to {inertia}")
        prev_inertia = inertia
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(centroids.shape[0]):
            members = X[assignments == j]
            if len(members) == 0:
                # re-seed an empty cluster to the farthest point
                centroids[j] = X[d2.argmax()]
            else:
                centroids[j] = members.mean(axis=0)
    assignments, d2 = _assign(X, centroids)
    return centroids, assignments, float(d2.sum())


def kmeans_fit(X, k: int, seed: int = DEFAULT_SEED, restarts: int = DEFAULT_RESTARTS) -> KMeansModel:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic per (seed, restarts); inertia ties go to the lowest
    restart index so concurrent restarts cannot change the winner.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        centroids = _kmeans_pp_init(X, k, rng)
        centroids, assignments, inertia = _lloyd(X, centroids.copy())
        if best is None or inertia < best[0]:
            best = (inertia, centroids, assignments)
    inertia, centroids, assignments = best
    return KMeansModel(centroids=centroids, inertia=inertia, assignments=assignments)


def kmeans_classify(model: KMeansModel, train_labels, X_test) -> np.ndarray:
    """Label clusters by training-label majority vote, then classify test
    points by nearest centroid.  Vote ties, and clusters without a training
    point, go to the lower class."""
    train_labels = np.asarray(train_labels, dtype=int)
    if len(train_labels) != len(model.assignments):
        raise ValueError("training labels must align with the fitted assignments")
    model.cluster_to_class = np.array([
        np.bincount(train_labels[model.assignments == j], minlength=3).argmax()
        for j in range(model.centroids.shape[0])
    ])
    return kmeans_predict(model, X_test)


def kmeans_predict(model: KMeansModel, X) -> np.ndarray:
    """Class of each point's nearest centroid, by the mapping that
    kmeans_classify set."""
    idx, _ = _assign(np.asarray(X, dtype=float), model.centroids)
    return model.cluster_to_class[idx]


def _ordinal_objective(X, y, w, b, C) -> float:
    obj = 0.5 * float(w @ w)
    scores = X @ w
    for j, bj in enumerate(b, start=1):
        sign = np.where(np.asarray(y) >= j, 1.0, -1.0)
        obj += C * float(np.maximum(0.0, 1.0 - sign * (scores - bj)).sum())
    return obj


def ordinal_svm_fit(
    X,
    labels,
    C: float = 1.0,
    epochs: int = 200,
    seed: int = DEFAULT_SEED,
) -> OrdinalSvmModel:
    """All-threshold ordinal hinge fit by stochastic subgradient descent.

    Each sample pays hinge(1 - s*(w.x - b_j)) against both thresholds, with
    s = +1 when its class sits above threshold j and -1 otherwise.  The
    final parameters are the Polyak average over all steps; the per-epoch
    objective of the running average is recorded in objective_trace.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not 0 < C < np.inf:
        raise ValueError(f"C must be a finite number > 0, got {C}")
    present = set(y.tolist())
    if present != {0, 1, 2}:
        raise ValueError(f"all three classes must be present, got {sorted(present)}")
    n, p = X.shape

    # Each step is the array update
    #     gw = w/n - sum_j [hinge_j active] C*s_j*x;  gb_j = [hinge_j active] C*s_j
    #     w -= eta*gw;  b -= eta*gb;  avg += (new - avg)/t
    # written with few numpy calls and the same rounding: the thresholds and
    # their averages are Python floats, and an inactive hinge term is skipped
    # (b - eta*0.0 is b); (C*s)*x is exactly +-(C*x) and g - (-(C*x)) is
    # exactly g + C*x, so the rows are scaled by C once; the two hinge terms
    # stay two updates (one 2*C*x update rounds differently); ndarray.dot is
    # the same BLAS ddot as `@` at half its call cost; n and eta are 0-d
    # arrays because numpy takes a slower path for a Python float operand.
    # The average never feeds back into the iterate, so each step only stores
    # its iterate and the epoch then advances the average coordinate by
    # coordinate in Python floats, with the same subtract, divide and add per
    # step (t counts steps as floats, exact below 2**53).
    steps = [
        (row, c_row, 1.0 if v >= 1 else -1.0, 1.0 if v >= 2 else -1.0)
        for row, c_row, v in zip(X, C * X, y.tolist())
    ]
    w = np.zeros(p)
    b1, b2 = -1.0, 1.0
    avg_w = np.zeros(p)
    ab1, ab2 = 0.0, 0.0
    iterates = np.empty((n, p))
    trace: list[float] = []
    rng = np.random.default_rng(seed)
    n_arr = np.array(float(n))
    eta_arr = np.array(0.0)
    t = 0.0
    for _ in range(epochs):
        t_epoch = t
        for k, i in enumerate(rng.permutation(n).tolist()):
            t += 1.0
            eta = 1.0 / (C * t)
            eta_arr[()] = eta
            row, c_row, s1, s2 = steps[i]
            gw = w / n_arr
            score = float(row.dot(w))
            if 1.0 - s1 * (score - b1) > 0.0:
                if s1 > 0.0:
                    gw -= c_row
                else:
                    gw += c_row
                b1 -= eta * (C * s1)
            if 1.0 - s2 * (score - b2) > 0.0:
                if s2 > 0.0:
                    gw -= c_row
                else:
                    gw += c_row
                b2 -= eta * (C * s2)
            gw *= eta_arr
            w -= gw
            iterates[k] = w
            ab1 += (b1 - ab1) / t
            ab2 += (b2 - ab2) / t
        for j in range(p):
            a, tj = float(avg_w[j]), t_epoch
            for x in iterates[:, j].tolist():
                tj += 1.0
                a += (x - a) / tj
            avg_w[j] = a
        trace.append(_ordinal_objective(X, y, avg_w, [ab1, ab2], C))

    b1, b2 = sorted([ab1, ab2])
    if b1 == b2:
        b2 = b1 + 1e-9
    return OrdinalSvmModel(avg_w, b1, b2, objective_trace=trace)


def ordinal_svm_predict(model: OrdinalSvmModel, X) -> np.ndarray:
    """Flop below b1, Neutral in [b1, b2), Hit from b2 up."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.weights.shape[0]:
        raise ValueError("column mismatch")
    return np.searchsorted([model.b1, model.b2], X @ model.weights, side="right")
