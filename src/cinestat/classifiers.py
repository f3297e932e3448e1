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
    s = +1 when its class sits above threshold j and -1 otherwise.  Step t,
    with eta = 1/(C*t), makes the update

        w <- w*(1 - eta/n) + eta*C*coef*x,   coef = sum_j [hinge_j active]*s_j,
        b_j <- b_j - eta*C*s_j for each active hinge.

    w is kept as sigma*v (Shalev-Shwartz et al., "Pegasos", 2011): the decay
    scales sigma, and only a step with coef != 0 touches v.  The final
    parameters are the Polyak average over all steps; the weights' average
    is kept by running sums (Bottou, "Stochastic Gradient Descent Tricks",
    2012).  The per-epoch objective of the running average is recorded in
    objective_trace.  In exact arithmetic these are the plain update's steps,
    so the weights differ from it by rounding only.  A fit is deterministic
    per seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not 0 < C < np.inf:
        raise ValueError(f"C must be a finite number > 0, got {C}")
    if len(y) != len(X):
        raise ValueError(f"need one label per row of X, got {len(y)} labels for {len(X)} rows")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    present = set(y.tolist())
    if present != {0, 1, 2}:
        raise ValueError(f"all three classes must be present, got {sorted(present)}")
    n, p = X.shape

    # The sum of the iterates w_1..w_t is acc + S*v, where S sums sigma over
    # the steps since the last rescale.  A change dv of v reaches the earlier
    # iterates through S*v too, so it subtracts S*dv from acc (S before the
    # step's own sigma); those terms wait in (row, coefficient) lists and go
    # in as one matrix-vector product per epoch.  A rescale moves sigma into
    # v and S*v into acc once sigma leaves [1e-4, 1e4] or reaches 0, which
    # C*n <= 1 does at once (its first decay factors are <= 0).  The
    # thresholds and their running means stay Python floats.
    steps = [(row, 1.0 if k >= 1 else -1.0, 1.0 if k >= 2 else -1.0) for row, k in zip(X, y.tolist())]
    v = np.zeros(p)
    sigma, S = 1.0, 0.0
    acc = np.zeros(p)
    avg_w = np.zeros(p)
    b1, b2 = -1.0, 1.0
    ab1, ab2 = 0.0, 0.0
    trace: list[float] = []
    rng = np.random.default_rng(seed)
    t = 0.0
    for _ in range(epochs):
        rows: list[int] = []
        coefs: list[float] = []
        for i in rng.permutation(n).tolist():
            t += 1.0
            eta = 1.0 / (C * t)
            row, s1, s2 = steps[i]
            score = sigma * float(row.dot(v))
            coef = 0.0
            if 1.0 - s1 * (score - b1) > 0.0:
                coef += s1
                b1 -= eta * (C * s1)
            if 1.0 - s2 * (score - b2) > 0.0:
                coef += s2
                b2 -= eta * (C * s2)
            sigma *= 1.0 - eta / n
            if not 1e-4 <= sigma <= 1e4:
                acc += S * v
                v *= sigma
                sigma, S = 1.0, 0.0
            if coef:
                c = eta * C * coef / sigma
                v += c * row
                rows.append(i)
                coefs.append(S * c)
            S += sigma
            ab1 += (b1 - ab1) / t
            ab2 += (b2 - ab2) / t
        acc -= np.array(coefs) @ X[rows]
        avg_w = (acc + S * v) / t
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
