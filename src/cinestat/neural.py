"""Single-hidden-layer perceptron classifier: sigmoid hidden units, softmax
output, cross-entropy loss, Adam updates, and validation early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inference import confusion_and_accuracy

# Adam and early-stopping settings
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BATCH_SIZE = 32
VALIDATION_FRACTION = 0.1
PATIENCE = 10
TOL = 1e-4


@dataclass
class MlpModel:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    seed: int

    def parameters(self):
        return [self.W1, self.b1, self.W2, self.b2]


@dataclass
class TrainTrace:
    losses: list[float] = field(default_factory=list)
    best_validation_score: float = 0.0
    diverged: bool = False


def mlp_init(seed: int, layer_sizes: tuple[int, int, int]) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    n_in, n_hid, n_out = layer_sizes
    lim1 = np.sqrt(6.0 / (n_in + n_hid))
    lim2 = np.sqrt(6.0 / (n_hid + n_out))
    return MlpModel(
        W1=rng.uniform(-lim1, lim1, size=(n_in, n_hid)),
        b1=np.zeros(n_hid),
        W2=rng.uniform(-lim2, lim2, size=(n_hid, n_out)),
        b2=np.zeros(n_out),
        seed=seed,
    )


def _forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and output probabilities, each computed in place
    on its fresh matmul output."""
    hidden = X @ model.W1
    hidden += model.b1
    # sigmoid: 1 / (1 + exp(-z)), z clipped to +-500
    np.clip(hidden, -500, 500, out=hidden)
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    # softmax, shifted by the row max
    P = hidden @ model.W2
    P += model.b2
    P -= P.max(axis=1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=1, keepdims=True)
    return hidden, P


def mlp_forward(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.W1.shape[0]:
        raise ValueError(f"expected {model.W1.shape[0]} input columns, got {X.shape[1]}")
    return _forward(model, X)[1]


def one_hot(labels) -> np.ndarray:
    return np.eye(3)[np.asarray(labels, dtype=int)]


def mlp_loss(model: MlpModel, X, onehot_labels) -> float:
    """Mean categorical cross-entropy."""
    Y = np.asarray(onehot_labels, dtype=float)
    if Y.ndim != 2 or not np.all((Y == 0) | (Y == 1)) or not np.all(Y.sum(axis=1) == 1):
        raise ValueError("labels must be one-hot")
    P = mlp_forward(model, X)
    np.clip(P, 1e-15, 1.0, out=P)
    np.log(P, out=P)
    P *= Y
    return float(-np.sum(P) / Y.shape[0])


def mlp_gradients(model: MlpModel, X, onehot_labels):
    """Backpropagation gradients of the mean cross-entropy, in parameter order
    (W1, b1, W2, b2)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(onehot_labels, dtype=float)
    hidden, d_out = _forward(model, X)
    d_out -= Y
    d_out /= X.shape[0]
    gW2 = hidden.T @ d_out
    gb2 = d_out.sum(axis=0)
    d_hidden = d_out @ model.W2.T
    d_hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    gW1 = X.T @ d_hidden
    gb1 = d_hidden.sum(axis=0)
    return [gW1, gb1, gW2, gb2]


def mlp_train(model: MlpModel, X, labels, max_epochs: int = 500):
    """Adam training with a deterministic per-epoch shuffle and early stopping
    on a held-out validation score (negative cross-entropy); returns
    (trained model, trace).  The trained weights are views of one flat
    parameter vector, which each minibatch updates in place."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    n = X.shape[0]
    if n < 50:
        raise ValueError("need at least 50 training samples")
    # W1, b1, W2 and b2 become reshaped views of one flat vector theta
    params = model.parameters()
    theta = np.concatenate(params, axis=None)
    parts = np.split(theta, np.cumsum([p.size for p in params])[:-1])
    model = MlpModel(*(part.reshape(p.shape) for part, p in zip(parts, params)), model.seed)

    split_rng = np.random.default_rng(model.seed)
    order = split_rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    train_idx, val_idx = order[:-n_val], order[-n_val:]
    Xt, yt = X[train_idx], y[train_idx]
    Xv, yv = X[val_idx], y[val_idx]
    Yt, Yv = one_hot(yt), one_hot(yv)

    # Adam's moments, flat in theta's layout
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    t = 0
    trace = TrainTrace()
    best_score = -np.inf
    best_theta = None
    stall = 0

    for epoch in range(1, max_epochs + 1):
        shuffle = np.random.default_rng(np.random.SeedSequence([model.seed, epoch]))
        idx = shuffle.permutation(len(Xt))
        Xe, Ye = Xt[idx], Yt[idx]
        for start in range(0, len(Xt), BATCH_SIZE):
            batch = slice(start, start + BATCH_SIZE)
            g = np.concatenate(mlp_gradients(model, Xe[batch], Ye[batch]), axis=None)
            t += 1
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += ((1 - BETA2) * g) * g
            theta -= (LEARNING_RATE * (m / (1 - BETA1**t))) / (np.sqrt(v / (1 - BETA2**t)) + EPS)

        loss = mlp_loss(model, Xt, Yt)
        trace.losses.append(loss)
        if not np.isfinite(loss):
            trace.diverged = True
            break

        # negative validation loss: smoother than accuracy on small holdouts
        score = -mlp_loss(model, Xv, Yv)
        if score > best_score + TOL:
            best_score = score
            best_theta = theta.copy()
            stall = 0
        else:
            stall += 1
        if stall >= PATIENCE:
            break

    if best_theta is not None:
        theta[:] = best_theta
        trace.best_validation_score = best_score
    return model, trace


def mlp_accuracy(model: MlpModel, X, labels) -> float:
    """Accuracy of mlp_predict's labels."""
    return confusion_and_accuracy(mlp_predict(model, X), labels)[1]


def mlp_predict(model: MlpModel, X) -> np.ndarray:
    """Argmax labels; probability ties resolve to the lower class index."""
    return mlp_forward(model, X).argmax(axis=1)
