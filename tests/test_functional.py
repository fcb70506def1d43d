"""Unit tests for the primitive ops and their backward rules."""

import math

import numpy as np
import pytest

from repro.nn import functional as F


def numeric_grad(fn, x, eps=1e-4):
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


@pytest.mark.parametrize("name,fwd,bwd,use_out", [
    ("relu", F.relu, F.relu_backward, False),
    ("gelu", F.gelu, F.gelu_backward, False),
    ("tanh", F.tanh, F.tanh_backward, True),
    ("sigmoid", F.sigmoid, F.sigmoid_backward, True),
])
def test_activation_gradients(name, fwd, bwd, use_out):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5)).astype(np.float64) + 0.1  # avoid relu kink
    upstream = rng.normal(size=x.shape)
    out = fwd(x)
    analytic = bwd(upstream, out if use_out else x)
    numeric = numeric_grad(lambda v: float(np.sum(fwd(v) * upstream)), x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-5)


def test_relu_zeroes_negatives():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(F.relu(x), [0, 0, 0, 0.5, 2.0])


def test_sigmoid_extreme_values_stable():
    x = np.array([-1000.0, 1000.0])
    out = F.sigmoid(x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=10, size=(8, 16))
    out = F.softmax(x)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(8), rtol=1e-6)
    assert np.all(out >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 7))
    np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), rtol=1e-6)


def test_softmax_backward_matches_numeric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5))
    upstream = rng.normal(size=x.shape)
    out = F.softmax(x)
    analytic = F.softmax_backward(upstream, out)
    numeric = numeric_grad(
        lambda v: float(np.sum(F.softmax(v) * upstream)), x.copy()
    )
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 6))
    np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)),
                               rtol=1e-6)


def test_im2col_known_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    cols, out_h, out_w = F.im2col(x, 2, 2, stride=2, padding=0)
    assert (out_h, out_w) == (2, 2)
    # first column = top-left 2x2 patch flattened
    np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
    np.testing.assert_array_equal(cols[0, :, 3], [10, 11, 14, 15])


def test_im2col_with_padding_shape():
    x = np.ones((2, 3, 5, 5), dtype=np.float32)
    cols, out_h, out_w = F.im2col(x, 3, 3, stride=1, padding=1)
    assert (out_h, out_w) == (5, 5)
    assert cols.shape == (2, 3 * 9, 25)


def test_col2im_adjointness():
    """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    cols, _, _ = F.im2col(x, 3, 3, stride=1, padding=1)
    y = rng.normal(size=cols.shape).astype(np.float32)
    back = F.col2im(y, x.shape, 3, 3, stride=1, padding=1)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) / max(abs(lhs), 1e-9) < 1e-5


def test_gelu_matches_reference_points():
    # gelu(0) == 0 and gelu is close to identity for large positive x
    assert F.gelu(np.array([0.0]))[0] == 0.0
    np.testing.assert_allclose(F.gelu(np.array([10.0]))[0], 10.0, rtol=1e-5)


def test_gelu_float32_within_4_ulps_of_float64_reference():
    """float32 in, float32 out, within 4 float32 ulps of the float64 tanh
    formula over [-10, 10].  The ulps are taken at ``|x|``, which bounds
    ``|gelu(x)|``: for very negative ``x`` the output is ``x`` times the
    tiny ``1 + tanh(...)``, which no float32 evaluation of the tanh form
    resolves relative to itself, only relative to ``x``."""
    x = np.linspace(-10.0, 10.0, 100_001, dtype=np.float32)
    x64 = x.astype(np.float64)
    reference = 0.5 * x64 * (
        1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * x64**3)))
    out = F.gelu(x)
    assert out.dtype == np.float32
    ulps = np.abs(out - reference) / np.spacing(np.abs(x)).astype(np.float64)
    assert float(np.max(ulps)) <= 4.0
