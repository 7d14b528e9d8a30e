from __future__ import annotations

import numpy as np
import pytest

from byzbench.errors import DimensionMismatch, EmptySelection
from byzbench import models
from byzbench.models import OneHiddenMLP, SoftmaxRegression, build_model
from byzbench.specs import ModelSpec


def _batch(rng, n, d, classes):
    return rng.normal(size=(n, d)), rng.integers(0, classes, size=n)


def _central_fd(model, params, features, y, coord, step=1e-5):
    plus, minus = params.copy(), params.copy()
    plus[coord] += step
    minus[coord] -= step
    f_plus, _ = model.loss_and_gradient(plus, features, y)
    f_minus, _ = model.loss_and_gradient(minus, features, y)
    return (f_plus - f_minus) / (2 * step)


def _assert_gradient_matches_fd(model, rng, n_points=10, n_coords=20):
    d, c = model.dim, model.n_classes
    for _ in range(n_points):
        params = rng.normal(scale=0.5, size=model.n_params)
        features, y = _batch(rng, 16, d, c)
        _, grad = model.loss_and_gradient(params, features, y)
        for coord in rng.choice(model.n_params, size=n_coords, replace=False):
            fd = _central_fd(model, params, features, y, int(coord))
            denom = max(abs(grad[coord]), abs(fd), 1e-8)
            assert abs(fd - grad[coord]) / denom < 1e-4


# ------------------------------------------------------------------- softmax


def test_softmax_param_count():
    assert SoftmaxRegression(20, 10).n_params == 21 * 10


def test_softmax_zero_params_gives_log_c_loss():
    model = SoftmaxRegression(5, 7)
    rng = np.random.default_rng(0)
    features, y = _batch(rng, 12, 5, 7)
    loss, _ = model.loss_and_gradient(np.zeros(model.n_params), features, y)
    assert loss == pytest.approx(np.log(7), abs=1e-12)


def test_softmax_gradient_matches_finite_differences():
    model = SoftmaxRegression(6, 4)
    _assert_gradient_matches_fd(model, np.random.default_rng(1))


def test_softmax_flatten_round_trip_bitwise():
    model = SoftmaxRegression(4, 3)
    rng = np.random.default_rng(2)
    params = rng.normal(size=model.n_params)
    w, b = model.unflatten(params)
    assert np.array_equal(model.flatten(w, b), params)


def test_softmax_duplicated_batch_is_invariant():
    model = SoftmaxRegression(5, 3)
    rng = np.random.default_rng(3)
    params = rng.normal(size=model.n_params)
    features, y = _batch(rng, 8, 5, 3)
    loss_a, grad_a = model.loss_and_gradient(params, features, y)
    loss_b, grad_b = model.loss_and_gradient(
        params, np.vstack([features, features]), np.concatenate([y, y])
    )
    assert loss_b == pytest.approx(loss_a, rel=1e-12)
    assert np.allclose(grad_a, grad_b, rtol=1e-12, atol=1e-15)


def test_softmax_rejects_wrong_param_length():
    model = SoftmaxRegression(4, 3)
    with pytest.raises(DimensionMismatch):
        model.loss_and_gradient(np.zeros(7), np.zeros((2, 4)), np.zeros(2, dtype=np.int64))


def test_softmax_init_is_zero():
    model = SoftmaxRegression(4, 3)
    assert np.array_equal(model.init_params(np.random.default_rng(0)), np.zeros(15))


def test_softmax_gradient_descent_separates_easy_data():
    rng = np.random.default_rng(5)
    n = 400
    y = (np.arange(n) % 2).astype(np.int64)
    features = rng.normal(size=(n, 3)) + 4.0 * y[:, None]
    model = SoftmaxRegression(3, 2)
    params = model.init_params(rng)
    for _ in range(200):
        _, grad = model.loss_and_gradient(params, features, y)
        params -= 0.5 * grad
    assert model.accuracy(params, features, y) > 0.95


# ----------------------------------------------------------------------- mlp


def test_mlp_param_count():
    assert OneHiddenMLP(20, 32, 10).n_params == 21 * 32 + 33 * 10


def test_mlp_gradient_matches_finite_differences():
    model = OneHiddenMLP(5, 8, 3)
    _assert_gradient_matches_fd(model, np.random.default_rng(7))


def test_mlp_flatten_round_trip_bitwise():
    model = OneHiddenMLP(4, 6, 3)
    rng = np.random.default_rng(8)
    params = rng.normal(size=model.n_params)
    assert np.array_equal(model.flatten(*model.unflatten(params)), params)


def test_mlp_relu_subgradient_at_zero_is_zero():
    model = OneHiddenMLP(3, 4, 2)
    params = model.flatten(
        np.ones((3, 4)), np.zeros(4), np.ones((4, 2)), np.zeros(2)
    )
    # zero inputs put every pre-activation exactly at the kink
    features = np.zeros((5, 3))
    y = np.zeros(5, dtype=np.int64)
    _, grad = model.loss_and_gradient(params, features, y)
    grad_w1, grad_b1, _, _ = model.unflatten(grad)
    assert np.array_equal(grad_w1, np.zeros((3, 4)))
    assert np.array_equal(grad_b1, np.zeros(4))


def test_mlp_init_deterministic_per_seed():
    model = OneHiddenMLP(6, 5, 4)
    a = model.init_params(np.random.default_rng(11))
    b = model.init_params(np.random.default_rng(11))
    c = model.init_params(np.random.default_rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mlp_rejects_wrong_param_length():
    model = OneHiddenMLP(4, 3, 2)
    with pytest.raises(DimensionMismatch):
        model.unflatten(np.zeros(5))


# ------------------------------------------------------------------- stacked


@pytest.mark.parametrize(
    "model", [SoftmaxRegression(7, 4), OneHiddenMLP(7, 9, 4)], ids=["softmax", "mlp1"]
)
def test_stacked_call_matches_separate_batches(model):
    rng = np.random.default_rng(17)
    params = rng.normal(scale=0.5, size=model.n_params)
    features = rng.normal(size=(5, 12, model.dim))
    y = rng.integers(0, model.n_classes, size=(5, 12))
    losses, grads = model.loss_and_gradient(params, features, y)
    assert losses.shape == (5,)
    assert grads.shape == (5, model.n_params)
    for h in range(5):
        loss, grad = model.loss_and_gradient(params, features[h], y[h])
        assert isinstance(loss, float)
        assert losses[h] == pytest.approx(loss, rel=1e-12)
        assert np.allclose(grads[h], grad, rtol=1e-12, atol=0.0)


def _logits_by_expression(model, params, features):
    """Logits written as one expression per layer, each step a fresh array."""
    if isinstance(model, SoftmaxRegression):
        weights, bias = model.unflatten(params)
        return features @ weights + bias
    w1, b1, w2, b2 = model.unflatten(params)
    return np.maximum(features @ w1 + b1, 0.0) @ w2 + b2


@pytest.mark.parametrize(
    "model", [SoftmaxRegression(7, 4), OneHiddenMLP(7, 9, 4)], ids=["softmax", "mlp1"]
)
def test_logits_match_the_expression_bitwise(model):
    # the training forward pass, on one (n, d) batch and on an (H, n, d) stack
    rng = np.random.default_rng(23)
    for n in (1, 30, 257):
        params = rng.normal(size=model.n_params)
        for shape in ((n, model.dim), (3, n, model.dim)):
            features = rng.normal(size=shape)
            got = model._forward(model.unflatten(params), features)[-1]
            want = _logits_by_expression(model, params, features)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _loss_and_gradient_by_expression(model, params, features, y):
    """Loss and gradient on an (H, B, d) stack, each layer's step a fresh array."""
    y = np.asarray(y)
    parts = model.unflatten(params)
    if isinstance(model, SoftmaxRegression):
        weights, bias = parts
        logits = features @ weights + bias
    else:
        w1, b1, w2, b2 = parts
        hidden = np.maximum(features @ w1 + b1, 0.0)
        logits = hidden @ w2 + b2
    top = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - top)
    total = exp.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(logits, y[..., None], axis=-1)[..., 0]
    loss = np.mean((np.log(total) + top)[..., 0] - picked, axis=-1)
    g_logits = (exp / total - (y[..., None] == np.arange(model.n_classes))) / y.shape[-1]
    lead = features.shape[0]
    if isinstance(model, SoftmaxRegression):
        grad_w = np.swapaxes(features, 1, 2) @ g_logits
        return loss, np.concatenate([grad_w.reshape(lead, -1), g_logits.sum(axis=1)], axis=-1)
    grad_w2 = np.swapaxes(hidden, 1, 2) @ g_logits
    g_hidden = (g_logits @ w2.T) * (hidden > 0.0)
    grad_w1 = np.swapaxes(features, 1, 2) @ g_hidden
    parts = [grad_w1.reshape(lead, -1), g_hidden.sum(axis=1), grad_w2.reshape(lead, -1),
             g_logits.sum(axis=1)]
    return loss, np.concatenate(parts, axis=-1)


@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_gradient_matches_the_expression_bitwise(kind):
    rng = np.random.default_rng(29)
    for _ in range(40):
        dim, hidden, batch = rng.integers(1, 40, size=3).tolist()
        classes, stack = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        if kind == "softmax":
            model = SoftmaxRegression(dim, classes)
        else:
            model = OneHiddenMLP(dim, hidden, classes)
        params = rng.normal(size=model.n_params)
        features = rng.normal(size=(stack, batch, dim))
        y = rng.integers(0, classes, size=(stack, batch))
        want_loss, want_grad = _loss_and_gradient_by_expression(model, params, features, y)
        loss, grad = model.loss_and_gradient(params, features, y)
        assert loss.tobytes() == want_loss.tobytes()
        assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()
        # a (B, d) batch goes through as a stack of one
        want_loss, want_grad = _loss_and_gradient_by_expression(
            model, params, features[:1], y[:1]
        )
        loss, grad = model.loss_and_gradient(params, features[0], y[0])
        assert loss == float(want_loss[0])
        assert grad.tobytes() == want_grad[0].tobytes()


# ---------------------------------------------------------------------- spec


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("resnet")
    with pytest.raises(ValueError):
        ModelSpec("mlp1", hidden=0)


def test_build_model_dispatch():
    assert isinstance(build_model(ModelSpec("softmax"), 10, 4), SoftmaxRegression)
    mlp = build_model(ModelSpec("mlp1", hidden=16), 10, 4)
    assert isinstance(mlp, OneHiddenMLP)
    assert mlp.hidden == 16


def test_accuracy_bounds():
    model = SoftmaxRegression(4, 3)
    rng = np.random.default_rng(13)
    features, y = _batch(rng, 30, 4, 3)
    acc = model.accuracy(rng.normal(size=model.n_params), features, y)
    assert 0.0 <= acc <= 1.0


def _accuracy_by_expression(model, params, features, y) -> float:
    """The row-major definition: the first highest logit of each row against its label."""
    logits = _logits_by_expression(model, params, features)
    return float(np.mean(np.argmax(logits, axis=1) == y))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_accuracy_matches_the_row_wise_argmax(kind, order):
    rng = np.random.default_rng(29)
    for _ in range(60):
        dim, hidden, n = (int(v) for v in rng.integers(1, 40, size=3))
        classes = int(rng.integers(2, 12))
        model = build_model(ModelSpec(kind, hidden=hidden), dim, classes)
        params = rng.normal(size=model.n_params)
        features, y = _batch(rng, n * 7, dim, classes)
        features = np.asarray(features, order=order)
        got = model.accuracy(params, features, y)
        assert type(got) is float
        assert got == _accuracy_by_expression(model, params, features, y)


@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_accuracy_breaks_ties_at_the_first_class(kind):
    rng = np.random.default_rng(31)
    model = build_model(ModelSpec(kind, hidden=5), 6, 4)
    # Small integers keep every sum exact in either orientation, so classes 1
    # and 2, with equal weight columns and biases, tie bitwise.
    params = rng.integers(-3, 4, size=model.n_params).astype(np.float64)
    w_out, b_out = model.unflatten(params)[-2:]
    w_out[:, 2], b_out[2] = w_out[:, 1], b_out[1]
    features = rng.integers(-3, 4, size=(300, 6)).astype(np.float64)
    logits = _logits_by_expression(model, params, features)
    assert np.count_nonzero(logits[:, 2] == logits.max(axis=1)) > 10
    for y in (np.full(300, 1), np.full(300, 2), rng.integers(0, 4, size=300)):
        assert model.accuracy(params, features, y) == _accuracy_by_expression(
            model, params, features, y
        )


@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_accuracy_on_non_finite_logits_takes_the_argmax_path(kind, monkeypatch):
    rng = np.random.default_rng(37)
    model = build_model(ModelSpec(kind, hidden=5), 6, 4)
    params = rng.normal(size=model.n_params)
    features, y = _batch(rng, 50, 6, 4)
    features[3, 0] = np.nan
    features[7, 1] = np.inf
    features[9, 1:3] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        want = _accuracy_by_expression(model, params, features, y)
        calls = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(a) or argmax(*a, **k))
        assert model.accuracy(params, features, y) == want
    assert calls


def test_accuracy_counts_a_nan_row_apart_from_a_tie():
    # Row 0's logits are NaN (no highest logit), row 1's tie: together they
    # hold as many highest logits as there are rows.
    model = SoftmaxRegression(2, 3)
    params = model.flatten(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))
    features = np.array([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 0, 2])
    assert model.accuracy(params, features, y) == _accuracy_by_expression(
        model, params, features, y
    ) == 1.0


def test_accuracy_of_an_empty_test_set_raises():
    model = SoftmaxRegression(4, 3)
    with pytest.raises(EmptySelection, match="empty test set"):
        model.accuracy(np.zeros(model.n_params), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


def _test_split(rng, n, dim, classes):
    """Features laid out as `data.take` returns them: the transpose of a (d, n) array."""
    return np.ascontiguousarray(rng.normal(size=(dim, n))).T, rng.integers(0, classes, size=n)


@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_stacked_accuracy_equals_the_row_by_row_calls(kind, monkeypatch):
    rng = np.random.default_rng(41)
    model = build_model(ModelSpec(kind, hidden=6), 12, 5)
    stack = rng.normal(size=(7, model.n_params))
    for wrong in (np.zeros((2, model.n_params + 1)), np.zeros(model.n_params + 1)):
        with pytest.raises(DimensionMismatch):
            model.accuracy(wrong, *_test_split(rng, 10, 12, 5))
    # Chunks of `_CHUNK_ALIGN` (64) columns: splits of one partial chunk, of
    # tails of 6 and 3 columns that join the chunk before it, and of a single
    # column. Then the stack's chunks are 128 columns wide, and a split's
    # 70-column tail stands alone while each row scores it as one chunk.
    align, stack_width = models._CHUNK_ALIGN, 7 * model.widths[1]
    for slab, n in ((1, 37), (1, 4 * align + 70), (1, 5 * align + 3), (1, 1),
                    (2 * align * stack_width, 8 * align + 70)):
        monkeypatch.setattr(models, "_SLAB_ELEMENTS", slab)
        for features, y in (_test_split(rng, n, 12, 5), _batch(rng, n, 12, 5)):
            got = model.accuracy(stack, features, y)
            assert got.shape == (7,)
            # a (p,) vector is scored as a one-row stack and gives a float
            rows = [model.accuracy(row, features, y) for row in stack]
            assert all(type(acc) is float for acc in rows)
            assert rows == [model.accuracy(row[None], features, y)[0] for row in stack]
            assert got.tolist() == rows


def _argmax_calls(monkeypatch) -> list:
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(a) or argmax(*a, **k))
    return calls


@pytest.mark.parametrize("kind", ["softmax", "mlp1"])
def test_a_tied_or_nan_row_of_a_stack_takes_the_argmax_path_alone(kind, monkeypatch):
    rng = np.random.default_rng(43)
    model = build_model(ModelSpec(kind, hidden=5), 6, 4)
    # Small integers keep every sum exact in any order, so classes 1 and 2
    # of row 1, with equal weight columns and biases, tie bitwise. Rows 0 and
    # 2 are ordinary, row 3 holds a NaN.
    stack = rng.normal(size=(4, model.n_params))
    stack[1] = rng.integers(-3, 4, size=model.n_params)
    w_out, b_out = model.unflatten(stack[1])[-2:]
    w_out[:, 2], b_out[2] = w_out[:, 1], b_out[1]
    model.unflatten(stack[3])[-2][0, 1] = np.nan
    features = rng.integers(-3, 4, size=(300, 6)).astype(np.float64)
    y = rng.integers(0, 4, size=300)
    with np.errstate(invalid="ignore"):
        want = [_accuracy_by_expression(model, row, features, y) for row in stack]
        calls = _argmax_calls(monkeypatch)
        got = model.accuracy(stack, features, y)
    assert got.tolist() == want
    assert len(calls) == 2  # rows 1 and 3, in the one chunk of 300 columns
    logits = _logits_by_expression(model, stack[1], features)
    assert np.count_nonzero(logits[:, 2] == logits.max(axis=1)) > 10


def test_stacked_accuracy_of_an_empty_test_set_raises():
    model = SoftmaxRegression(4, 3)
    with pytest.raises(EmptySelection, match="empty test set"):
        model.accuracy(np.zeros((3, model.n_params)), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
