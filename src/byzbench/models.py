"""Flat-parameter classification models with closed-form gradients.

Parameters live in a single float64 vector laid out row-major, weights before
biases, layer by layer. flatten/unflatten round-trips are bitwise exact, which
keeps simulated training deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, EmptySelection, InvalidField


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and the logit gradient (probs - onehot) / batch.

    logits is (H, B, C) and y is (H, B): softmax runs over the last axis, the
    mean over the batch axis, and the loss comes back with shape (H,). The
    label logits are read, and the one-hot subtracted, through one flat
    index; the loss is np.mean's own sum and division.
    """
    batch, n_classes = y.shape[-1], logits.shape[-1]
    label = np.arange(0, y.size * n_classes, n_classes) + y.ravel()
    # numpy reduces a short last axis one row at a time; a class-major copy
    # gives the row maxima in a third of the time. A maximum is exact in any
    # order (but for the sign of a zero maximum, which changes neither
    # exp(logits - top) nor log(total) + top), so the bits are the same.
    top = np.ascontiguousarray(logits.reshape(-1, n_classes).T).max(axis=0)
    top = top.reshape(*y.shape, 1)
    exp = np.exp(logits - top)
    total = exp.sum(axis=-1, keepdims=True)
    lse = (np.log(total) + top)[..., 0]
    loss = np.add.reduce(lse - logits.ravel()[label].reshape(y.shape), axis=-1) / batch
    probs = exp / total
    probs.ravel()[label] -= 1.0
    probs /= batch
    return loss, probs


class _DenseNet:
    """Dense layers of the given widths with a ReLU between consecutive layers.

    Layer k maps widths[k] to widths[k + 1]. The ReLU subgradient at zero is
    taken as zero.
    """

    def __init__(self, widths: tuple[int, ...]):
        shapes = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            shapes += [(fan_in, fan_out), (fan_out,)]
        bounds = list(accumulate(map(math.prod, shapes), initial=0))
        self._parts = tuple(
            (slice(lo, hi), shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)
        )
        self.n_params = bounds[-1]

    def unflatten(self, params: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of the parts: w1, b1, w2, b2, ... in layer order."""
        if params.shape != (self.n_params,):
            raise DimensionMismatch(f"expected {self.n_params} params, got {params.shape}")
        return tuple(params[bounds].reshape(shape) for bounds, shape in self._parts)

    def flatten(self, *parts: np.ndarray) -> np.ndarray:
        """Lay parts out as a parameter vector; stacked (H, ...) parts give (H, p) rows."""
        lead = parts[-1].shape[:-1]
        return np.concatenate([part.reshape(*lead, -1) for part in parts], axis=-1)

    def _forward(self, parts: tuple[np.ndarray, ...], features: np.ndarray) -> list[np.ndarray]:
        """Each layer's input, then the logits: outputs[k] feeds layer k.

        Each output is updated in place: allocating a fresh one per step costs
        more than the arithmetic at these sizes, and an (n, C) eval would
        otherwise allocate twice.
        """
        outputs = [features]
        n_layers = len(parts) // 2
        for k in range(n_layers):
            out = outputs[k] @ parts[2 * k]
            out += parts[2 * k + 1]
            if k + 1 < n_layers:
                np.maximum(out, 0.0, out=out)
            outputs.append(out)
        return outputs

    def loss_and_gradient(self, params, features, y) -> tuple[float | np.ndarray, np.ndarray]:
        """Mean cross-entropy and its gradient on one batch or on a stack of batches.

        A (B, d) batch gives (float loss, (p,) gradient). An (H, B, d) stack
        gives (H,) losses and an (H, p) gradient stack whose row h is the
        result for batch h alone.
        """
        parts = self.unflatten(np.asarray(params, dtype=np.float64))
        single = features.ndim == 2
        x, labels = (features[None], np.asarray(y)[None]) if single else (features, np.asarray(y))
        outputs = self._forward(parts, x)
        loss, g_out = _cross_entropy(outputs[-1], labels)
        grads = [None] * len(parts)
        for k in reversed(range(len(parts) // 2)):
            grads[2 * k] = np.swapaxes(outputs[k], 1, 2) @ g_out
            grads[2 * k + 1] = g_out.sum(axis=1)
            if k:
                g_out = g_out @ parts[2 * k].T
                # max(pre, 0) > 0 exactly where pre > 0, so the ReLU mask is
                # read off the layer's input.
                g_out *= outputs[k] > 0.0
        grad = self.flatten(*grads)
        return (float(loss[0]), grad[0]) if single else (loss, grad)

    def accuracy(self, params, features, y) -> float:
        """Share of the (n, d) rows whose highest logit is at their label.

        Scored class-major: each layer computes W.T @ out on (d, n) inputs,
        giving (C, n) logits, which with few classes runs faster than the
        row-major (n, C) product and its row-wise argmax. Pass `features` as
        the transpose of a C-contiguous (d, n) array, as `data.take` returns
        it; any other layout works, slower. The class-major logits may
        differ from the training forward pass's in the last bits, so training
        never reads them.
        A row whose highest logit is tied, or that holds a NaN, is predicted
        as argmax predicts it: the first highest (or first NaN) class.
        """
        y = np.asarray(y)
        n = y.shape[0]
        if n == 0:
            raise EmptySelection("accuracy of an empty test set")
        parts = self.unflatten(params)
        out = features.T
        n_layers = len(parts) // 2
        for k in range(n_layers):
            out = parts[2 * k].T @ out
            out += parts[2 * k + 1][:, None]
            if k + 1 < n_layers:
                np.maximum(out, 0.0, out=out)
        top = out.max(axis=0)
        hit = out == top
        # A NaN column holds no hit, so a tie elsewhere could make up its count.
        if np.count_nonzero(hit) == n and not np.isnan(top).any():
            correct = np.count_nonzero(hit.ravel()[y * n + np.arange(n)])
        else:
            correct = np.count_nonzero(np.argmax(out, axis=0) == y)
        return float(correct / n)


class SoftmaxRegression(_DenseNet):
    """Multinomial logistic regression: (d + 1) * C parameters."""

    def __init__(self, dim: int, n_classes: int):
        super().__init__((dim, n_classes))
        self.dim = dim
        self.n_classes = n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng  # convex objective: the zero start is canonical and deterministic
        return np.zeros(self.n_params)

    # benchmarks/tracing.py wraps these two in each model class's own __dict__.
    loss_and_gradient = _DenseNet.loss_and_gradient
    accuracy = _DenseNet.accuracy


class OneHiddenMLP(_DenseNet):
    """One ReLU hidden layer: (d + 1) * h + (h + 1) * C parameters."""

    def __init__(self, dim: int, hidden: int, n_classes: int):
        super().__init__((dim, hidden, n_classes))
        self.dim = dim
        self.hidden = hidden
        self.n_classes = n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w1 = rng.standard_normal((self.dim, self.hidden)) * np.sqrt(2.0 / self.dim)
        w2 = rng.standard_normal((self.hidden, self.n_classes)) * np.sqrt(2.0 / self.hidden)
        return self.flatten(w1, np.zeros(self.hidden), w2, np.zeros(self.n_classes))

    # benchmarks/tracing.py wraps these two in each model class's own __dict__.
    loss_and_gradient = _DenseNet.loss_and_gradient
    accuracy = _DenseNet.accuracy


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
