"""Flat-parameter classification models with closed-form gradients.

Parameters live in a single float64 vector laid out row-major, weights before
biases, layer by layer. flatten/unflatten round-trips are bitwise exact, which
keeps simulated training deterministic.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .core import _SLAB_ELEMENTS
from .errors import DimensionMismatch, EmptySelection
from .specs import ModelSpec


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


# `_DenseNet.accuracy`'s chunks of test columns start at multiples of this
# many columns.
_CHUNK_ALIGN = 64


class _DenseNet:
    """Dense layers of the given widths with a ReLU between consecutive layers.

    Layer k maps widths[k] to widths[k + 1]. The ReLU subgradient at zero is
    taken as zero.
    """

    def __init__(self, widths: tuple[int, ...]):
        self.widths = widths
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

        The stack is allocated once, and each layer's weight product and bias
        sum write straight into that layer's columns of it.
        """
        parts = self.unflatten(np.asarray(params, dtype=np.float64))
        single = features.ndim == 2
        x, labels = (features[None], np.asarray(y)[None]) if single else (features, np.asarray(y))
        outputs = self._forward(parts, x)
        loss, g_out = _cross_entropy(outputs[-1], labels)
        grad = np.empty((x.shape[0], self.n_params))
        grads = [grad[:, bounds].reshape(len(grad), *shape) for bounds, shape in self._parts]
        for k in reversed(range(len(parts) // 2)):
            np.matmul(np.swapaxes(outputs[k], 1, 2), g_out, out=grads[2 * k])
            g_out.sum(axis=1, out=grads[2 * k + 1])
            if k:
                g_out = g_out @ parts[2 * k].T
                # max(pre, 0) > 0 exactly where pre > 0, so the ReLU mask is
                # read off the layer's input.
                g_out *= outputs[k] > 0.0
        return (float(loss[0]), grad[0]) if single else (loss, grad)

    def accuracy(self, params, features, y):
        """Share of the (n, d) test rows whose highest logit is at their
        label, for each row of an (R, p) parameter stack, as an (R,) array. A
        (p,) vector is scored as a one-row stack and gives a float.

        Scored class-major: the R first layers are laid side by side as one
        (d, R * width) matrix M, and M.T @ x runs on chunks of the (d, n)
        test columns whose (R * width, cols) product holds at most
        _SLAB_ELEMENTS float64s (the last chunk up to _CHUNK_ALIGN columns
        more). With few classes this runs faster than the row-major (n, C)
        product and its row-wise argmax, and a stack's larger product runs
        at a higher rate than R small ones. Later layers run as one stacked
        matmul, a BLAS product per row. Pass `features` as the transpose of a
        C-contiguous (d, n) array, as `data.take` returns it; any other
        layout works, slower. The class-major logits may differ from the
        training forward pass's in the last bits, so training never reads
        them. A test row whose highest logit is tied, or that holds a NaN, is
        predicted as argmax predicts it: the first highest (or first NaN)
        class; only the chunk of a parameter row that holds one takes the
        argmax path.

        BLAS may sum a product's edge columns in another order than its
        inner ones, so chunks start at multiples of _CHUNK_ALIGN columns, and
        a shorter tail joins the chunk before it (a one-column chunk would
        run as a matrix-vector product). On OpenBLAS 0.3.31 (SkylakeX
        kernels, one thread) every chunk then held a row's logits bitwise
        whatever the stack's height when n was a multiple of 16 and d at
        most 384. The last chunk of other splits, the n = 1,000 test splits
        of the softmax sweeps among them, may hold some logits a last bit
        apart between stacks of different heights, which moves an accuracy
        only where a test row's two highest logits are that close.
        """
        y = np.asarray(y)
        if y.shape[0] == 0:
            raise EmptySelection("accuracy of an empty test set")
        stack = np.atleast_2d(np.asarray(params, dtype=np.float64))
        if stack.shape[1:] != (self.n_params,):
            raise DimensionMismatch(f"expected (R, {self.n_params}) params, got {np.shape(params)}")
        n_rows, n = stack.shape[0], y.shape[0]
        parts = [stack[:, bounds].reshape(n_rows, *shape) for bounds, shape in self._parts]
        dim, width = parts[0].shape[1:]
        first = parts[0].transpose(1, 0, 2).reshape(dim, n_rows * width)
        first_bias = parts[1].reshape(-1, 1)
        later = [(np.swapaxes(w, 1, 2), b[:, :, None]) for w, b in zip(parts[2::2], parts[3::2])]
        cols = max(_CHUNK_ALIGN, _SLAB_ELEMENTS // first.shape[1] // _CHUNK_ALIGN * _CHUNK_ALIGN)
        starts = list(range(0, n, cols))
        if len(starts) > 1 and n - starts[-1] < _CHUNK_ALIGN:
            starts.pop()
        ends = [*starts[1:], n]
        # Every chunk's product goes to one buffer, so a call holds one at a time.
        buffer = np.empty(first.shape[1] * max(hi - lo for lo, hi in zip(starts, ends)))
        x = features.T
        correct = np.zeros(n_rows, dtype=np.int64)
        for lo, hi in zip(starts, ends):
            out = buffer[: first.shape[1] * (hi - lo)].reshape(-1, hi - lo)
            np.matmul(first.T, x[:, lo:hi], out=out)
            out += first_bias
            out = out.reshape(n_rows, width, hi - lo)
            for weights, bias in later:
                np.maximum(out, 0.0, out=out)
                out = weights @ out
                out += bias
            labels, at_label = y[lo:hi], y[lo:hi] * (hi - lo) + np.arange(hi - lo)
            top = out.max(axis=1)
            hit = out == top[:, None]
            nan_rows = np.isnan(top).any(axis=1)
            for r in range(n_rows):
                # A NaN column holds no hit, so a tie elsewhere could make up its count.
                if np.count_nonzero(hit[r]) == hi - lo and not nan_rows[r]:
                    correct[r] += np.count_nonzero(hit[r].ravel()[at_label])
                else:
                    correct[r] += np.count_nonzero(np.argmax(out[r], axis=0) == labels)
        accs = correct / n
        return float(accs[0]) if np.ndim(params) == 1 else accs


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


def build_model(spec: ModelSpec, dim: int, n_classes: int):
    if spec.kind == "softmax":
        return SoftmaxRegression(dim, n_classes)
    return OneHiddenMLP(dim, spec.hidden, n_classes)
