"""Numeric gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn import functional as F


def check_param_gradient(layer, x, param_name, idx, eps=1e-3, rtol=5e-2):
    """Compare analytic parameter gradient against central differences."""
    rng = np.random.default_rng(0)
    out = layer(x)
    upstream = rng.normal(size=out.shape).astype(np.float32)
    layer.zero_grad()
    layer(x)
    layer.backward(upstream)
    param = dict(layer.named_parameters())[param_name]
    analytic = param.grad[idx]

    orig = param.data[idx]
    param.data[idx] = orig + eps
    hi = float(np.sum(layer(x) * upstream))
    param.data[idx] = orig - eps
    lo = float(np.sum(layer(x) * upstream))
    param.data[idx] = orig
    numeric = (hi - lo) / (2 * eps)
    assert analytic == pytest.approx(numeric, rel=rtol, abs=1e-3)


def check_input_gradient(layer, x, eps=1e-3, rtol=5e-2, samples=5):
    rng = np.random.default_rng(1)
    out = layer(x)
    upstream = rng.normal(size=out.shape).astype(np.float32)
    layer(x)
    grad_in = layer.backward(upstream)
    flat = x.ravel()
    indices = rng.choice(flat.size, size=min(samples, flat.size),
                         replace=False)
    for i in indices:
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(np.sum(layer(x) * upstream))
        flat[i] = orig - eps
        lo = float(np.sum(layer(x) * upstream))
        flat[i] = orig
        numeric = (hi - lo) / (2 * eps)
        assert grad_in.ravel()[i] == pytest.approx(numeric, rel=rtol, abs=2e-3)


def test_linear_forward_matches_matmul():
    rng = np.random.default_rng(2)
    layer = Linear(6, 4, rng=rng)
    x = rng.normal(size=(3, 6)).astype(np.float32)
    expected = x @ layer.weight.data.T + layer.bias.data
    np.testing.assert_allclose(layer(x), expected, rtol=1e-6)


def test_linear_gradients():
    rng = np.random.default_rng(3)
    layer = Linear(5, 4, rng=rng)
    x = rng.normal(size=(6, 5)).astype(np.float32)
    check_param_gradient(layer, x, "weight", (1, 2))
    check_param_gradient(layer, x, "bias", (0,))
    check_input_gradient(layer, x)


def test_linear_3d_input():
    rng = np.random.default_rng(4)
    layer = Linear(5, 7, rng=rng)
    x = rng.normal(size=(2, 3, 5)).astype(np.float32)
    out = layer(x)
    assert out.shape == (2, 3, 7)
    grad_in = layer.backward(np.ones_like(out))
    assert grad_in.shape == x.shape
    assert layer.weight.grad.shape == (7, 5)


def test_embedding_lookup_and_grad():
    rng = np.random.default_rng(5)
    layer = Embedding(10, 4, rng=rng)
    ids = np.array([[1, 3], [3, 9]])
    out = layer(ids)
    np.testing.assert_array_equal(out[0, 0], layer.weight.data[1])
    layer.zero_grad()
    layer(ids)
    layer.backward(np.ones((2, 2, 4), dtype=np.float32))
    # token 3 appears twice -> gradient accumulates
    np.testing.assert_allclose(layer.weight.grad[3], 2 * np.ones(4))
    np.testing.assert_allclose(layer.weight.grad[0], np.zeros(4))


def test_layernorm_output_statistics():
    rng = np.random.default_rng(6)
    layer = LayerNorm(32)
    x = rng.normal(loc=5.0, scale=3.0, size=(4, 32)).astype(np.float32)
    out = layer(x)
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)
    np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)


def test_layernorm_gradients():
    rng = np.random.default_rng(7)
    layer = LayerNorm(8)
    layer.weight.data = rng.normal(size=8).astype(np.float32)
    x = rng.normal(size=(3, 8)).astype(np.float32)
    check_param_gradient(layer, x, "weight", (2,))
    check_param_gradient(layer, x, "bias", (5,))
    check_input_gradient(layer, x)


def test_batchnorm1d_train_and_eval_modes():
    rng = np.random.default_rng(8)
    layer = BatchNorm1d(4)
    x = rng.normal(loc=2.0, size=(64, 4)).astype(np.float32)
    out = layer(x)
    np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-5)
    # eval mode uses running stats (updated toward batch stats)
    layer.eval()
    out_eval = layer(x)
    assert not np.allclose(out_eval, out, atol=1e-3)


def test_batchnorm2d_gradients():
    rng = np.random.default_rng(9)
    layer = BatchNorm2d(3)
    x = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
    check_param_gradient(layer, x, "weight", (1,))
    check_input_gradient(layer, x)


def test_dropout_train_scales_and_eval_identity():
    rng = np.random.default_rng(10)
    layer = Dropout(0.5, rng=rng)
    x = np.ones((2000,), dtype=np.float32)
    out = layer(x)
    kept = out[out > 0]
    np.testing.assert_allclose(kept, 2.0 * np.ones_like(kept))
    assert 0.4 < (out > 0).mean() < 0.6
    layer.eval()
    np.testing.assert_array_equal(layer(x), x)


def test_dropout_backward_uses_same_mask():
    layer = Dropout(0.5, rng=np.random.default_rng(11))
    x = np.ones((100,), dtype=np.float32)
    out = layer(x)
    grad = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(grad, out)


def test_dropout_rejects_invalid_probability():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_conv2d_matches_direct_convolution():
    rng = np.random.default_rng(12)
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
    out = layer(x)
    assert out.shape == (1, 3, 5, 5)
    # check one output element by hand
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    patch = padded[0, :, 2:5, 2:5]
    expected = float(np.sum(patch * layer.weight.data[1]) + layer.bias.data[1])
    assert out[0, 1, 2, 2] == pytest.approx(expected, rel=1e-4)


def test_conv2d_gradients():
    rng = np.random.default_rng(13)
    layer = Conv2d(2, 2, 3, padding=1, rng=rng)
    x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
    check_param_gradient(layer, x, "weight", (0, 1, 1, 1))
    check_param_gradient(layer, x, "bias", (1,))
    check_input_gradient(layer, x)


def test_conv2d_stride():
    rng = np.random.default_rng(14)
    layer = Conv2d(1, 1, 2, stride=2, rng=rng)
    x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
    assert layer(x).shape == (1, 1, 3, 3)


def test_maxpool_forward_and_backward():
    x = np.array([[[[1, 2, 5, 6],
                    [3, 4, 7, 8],
                    [1, 1, 0, 0],
                    [1, 9, 0, 0]]]], dtype=np.float32)
    layer = MaxPool2d(2)
    out = layer(x)
    np.testing.assert_array_equal(out[0, 0], [[4, 8], [9, 0]])
    grad = layer.backward(np.ones_like(out))
    # gradient routed to the max positions only
    assert grad[0, 0, 1, 1] == 1.0 and grad[0, 0, 0, 0] == 0.0
    assert grad[0, 0, 3, 1] == 1.0


def test_maxpool_rejects_indivisible_input():
    with pytest.raises(ValueError):
        MaxPool2d(2)(np.zeros((1, 1, 5, 5), dtype=np.float32))


def test_global_avg_pool_roundtrip():
    rng = np.random.default_rng(15)
    layer = GlobalAvgPool2d()
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    out = layer(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)
    grad = layer.backward(np.ones_like(out))
    np.testing.assert_allclose(grad, np.full_like(x, 1 / 16.0))


def test_flatten_roundtrip():
    layer = Flatten()
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    out = layer(x)
    assert out.shape == (2, 12)
    assert layer.backward(out).shape == x.shape


def test_residual_gradient_adds_paths():
    rng = np.random.default_rng(16)
    inner = Linear(4, 4, rng=rng)
    layer = Residual(inner)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    out = layer(x)
    np.testing.assert_allclose(out, x + inner(x), rtol=1e-6)
    layer(x)
    grad = layer.backward(np.ones_like(out))
    expected = np.ones_like(x) + np.ones_like(out) @ inner.weight.data
    np.testing.assert_allclose(grad, expected, rtol=1e-5)


def test_sequential_traversal_and_naming():
    rng = np.random.default_rng(17)
    model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    names = [n for n, _ in model.named_parameters()]
    assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]
    assert len(model) == 3
    assert isinstance(model[1], ReLU)


def test_gelu_module_backward_matches_function():
    rng = np.random.default_rng(18)
    layer = GELU()
    x = rng.normal(size=(5, 5)).astype(np.float32)
    check_input_gradient(layer, x)


def test_gelu_module_backward_reuses_forward_tanh(monkeypatch):
    rng = np.random.default_rng(19)
    layer = GELU()
    x = rng.normal(scale=3.0, size=(4, 8, 16)).astype(np.float32)
    grad = rng.normal(size=x.shape).astype(np.float32)
    expected = F.gelu_backward(grad, x)
    layer(x)

    def no_tanh(_x):
        raise AssertionError("GELU.backward re-evaluated the tanh")

    monkeypatch.setattr(F, "gelu_tanh", no_tanh)
    np.testing.assert_allclose(layer.backward(grad), expected, rtol=1e-6)
