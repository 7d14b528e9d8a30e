"""Flat-parameter classification models with closed-form gradients.

Parameters live in a single float64 vector laid out row-major, weights before
biases, layer by layer. flatten/unflatten round-trips are bitwise exact, which
keeps simulated training deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidField


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and the logit gradient (probs - onehot) / batch.

    logits is (H, B, C) and y is (H, B): softmax runs over the last axis, the
    mean over the batch axis, and the loss comes back with shape (H,).
    """
    top = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - top)
    total = exp.sum(axis=-1, keepdims=True)
    lse = (np.log(total) + top)[..., 0]
    loss = np.mean(lse - np.take_along_axis(logits, y[..., None], axis=-1)[..., 0], axis=-1)
    probs = exp / total
    probs -= y[..., None] == np.arange(logits.shape[-1])
    return loss, probs / y.shape[-1]


def _as_stack(features: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """View a single (B, d) batch as a stack of one; an (H, B, d) stack passes through."""
    y = np.asarray(y)
    if features.ndim == 2:
        return features[None], y[None]
    return features, y


def _unstack(
    features: np.ndarray, loss: np.ndarray, grads: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Return (loss, gradient) in the shape of the batch the caller passed."""
    if features.ndim == 2:
        return float(loss[0]), grads[0]
    return loss, grads


class SoftmaxRegression:
    """Multinomial logistic regression: (d + 1) * C parameters."""

    def __init__(self, dim: int, n_classes: int):
        self.dim = dim
        self.n_classes = n_classes

    @property
    def n_params(self) -> int:
        return (self.dim + 1) * self.n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng  # convex objective: the zero start is canonical and deterministic
        return np.zeros(self.n_params)

    def unflatten(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if params.shape != (self.n_params,):
            raise DimensionMismatch(f"expected {self.n_params} params, got {params.shape}")
        cut = self.dim * self.n_classes
        return params[:cut].reshape(self.dim, self.n_classes), params[cut:]

    def flatten(self, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Lay parts out as a parameter vector; stacked (H, ...) parts give (H, p) rows."""
        lead = bias.shape[:-1]
        return np.concatenate([weights.reshape(*lead, -1), bias], axis=-1)

    def logits(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        weights, bias = self.unflatten(params)
        out = features @ weights
        out += bias  # in place: an (n, C) eval would otherwise allocate twice
        return out

    def loss_and_gradient(self, params, features, y) -> tuple[float | np.ndarray, np.ndarray]:
        """Mean cross-entropy and its gradient on one batch or on a stack of batches.

        A (B, d) batch gives (float loss, (p,) gradient). An (H, B, d) stack
        gives (H,) losses and an (H, p) gradient stack whose row h is the
        result for batch h alone.
        """
        weights, bias = self.unflatten(np.asarray(params, dtype=np.float64))
        x, labels = _as_stack(features, y)
        loss, g_logits = _cross_entropy(x @ weights + bias, labels)
        grad_w = np.swapaxes(x, 1, 2) @ g_logits
        grad_b = g_logits.sum(axis=1)
        return _unstack(features, loss, self.flatten(grad_w, grad_b))

    def predict(self, params, features) -> np.ndarray:
        return np.argmax(self.logits(params, features), axis=1)

    def accuracy(self, params, features, y) -> float:
        return float(np.mean(self.predict(params, features) == y))


class OneHiddenMLP:
    """One ReLU hidden layer: (d + 1) * h + (h + 1) * C parameters.

    The ReLU subgradient at zero is taken as zero.
    """

    def __init__(self, dim: int, hidden: int, n_classes: int):
        self.dim = dim
        self.hidden = hidden
        self.n_classes = n_classes

    @property
    def n_params(self) -> int:
        return (self.dim + 1) * self.hidden + (self.hidden + 1) * self.n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w1 = rng.standard_normal((self.dim, self.hidden)) * np.sqrt(2.0 / self.dim)
        w2 = rng.standard_normal((self.hidden, self.n_classes)) * np.sqrt(2.0 / self.hidden)
        return self.flatten(w1, np.zeros(self.hidden), w2, np.zeros(self.n_classes))

    def unflatten(self, params: np.ndarray):
        if params.shape != (self.n_params,):
            raise DimensionMismatch(f"expected {self.n_params} params, got {params.shape}")
        d, h, c = self.dim, self.hidden, self.n_classes
        parts = np.split(params, [d * h, d * h + h, d * h + h + h * c])
        return parts[0].reshape(d, h), parts[1], parts[2].reshape(h, c), parts[3]

    def flatten(self, w1, b1, w2, b2) -> np.ndarray:
        """Lay parts out as a parameter vector; stacked (H, ...) parts give (H, p) rows."""
        lead = b1.shape[:-1]
        return np.concatenate([w1.reshape(*lead, -1), b1, w2.reshape(*lead, -1), b2], axis=-1)

    def logits(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self.unflatten(params)
        hidden = features @ w1
        hidden += b1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ w2
        out += b2
        return out

    def loss_and_gradient(self, params, features, y) -> tuple[float | np.ndarray, np.ndarray]:
        """Mean cross-entropy and its gradient on one batch or on a stack of batches.

        A (B, d) batch gives (float loss, (p,) gradient). An (H, B, d) stack
        gives (H,) losses and an (H, p) gradient stack whose row h is the
        result for batch h alone.
        """
        w1, b1, w2, b2 = self.unflatten(np.asarray(params, dtype=np.float64))
        x, labels = _as_stack(features, y)
        # The (H, B, hidden) arrays are updated in place: allocating a fresh
        # one per step costs more than the arithmetic at these sizes.
        # max(pre, 0) > 0 exactly where pre > 0, so the ReLU mask is read
        # off the activations.
        hidden = x @ w1
        hidden += b1
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ w2
        logits += b2
        loss, g_logits = _cross_entropy(logits, labels)
        grad_w2 = np.swapaxes(hidden, 1, 2) @ g_logits
        grad_b2 = g_logits.sum(axis=1)
        g_hidden = g_logits @ w2.T
        g_hidden *= hidden > 0.0
        grad_w1 = np.swapaxes(x, 1, 2) @ g_hidden
        grad_b1 = g_hidden.sum(axis=1)
        return _unstack(features, loss, self.flatten(grad_w1, grad_b1, grad_w2, grad_b2))

    def predict(self, params, features) -> np.ndarray:
        return np.argmax(self.logits(params, features), axis=1)

    def accuracy(self, params, features, y) -> float:
        return float(np.mean(self.predict(params, features) == y))


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "softmax"
    hidden: int = field(default=32, metadata={"kinds": ("mlp1",)})

    def __post_init__(self):
        if self.kind not in ("softmax", "mlp1"):
            raise InvalidField("kind", f"unknown model kind {self.kind!r}")
        if self.hidden < 1:
            raise InvalidField("hidden", "hidden width must be >= 1")


def build_model(spec: ModelSpec, dim: int, n_classes: int):
    if spec.kind == "softmax":
        return SoftmaxRegression(dim, n_classes)
    return OneHiddenMLP(dim, spec.hidden, n_classes)
