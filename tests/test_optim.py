"""Tests for optimizers, clipping and loss functions."""

import numpy as np
import pytest

from repro.nn import Parameter, SGD, Adam, clip_grad_norm, global_grad_norm
from repro.nn.loss import (
    mse_loss,
    perplexity,
    sequence_cross_entropy,
    softmax_cross_entropy,
    span_extraction_loss,
)


def make_param(values):
    p = Parameter(np.asarray(values, dtype=np.float32))
    p.grad = np.ones_like(p.data)
    return p


def test_sgd_plain_step():
    p = make_param([1.0, 2.0])
    SGD([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.9, 1.9])


def test_sgd_momentum_accumulates():
    p = make_param([0.0])
    opt = SGD([p], lr=1.0, momentum=0.9)
    opt.step()        # v=1, x=-1
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()        # v=1.9, x=-2.9
    np.testing.assert_allclose(p.data, [-2.9], rtol=1e-6)


def test_sgd_weight_decay():
    p = make_param([10.0])
    p.grad = np.zeros(1, dtype=np.float32)
    SGD([p], lr=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(p.data, [10.0 - 0.1 * 0.5 * 10.0])


def test_sgd_skips_missing_gradients():
    p = Parameter(np.ones(2, dtype=np.float32))
    SGD([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0, 1.0])


def test_invalid_lr_rejected():
    with pytest.raises(ValueError):
        SGD([make_param([1.0])], lr=0.0)


def test_adam_first_step_size():
    """After one step Adam moves by ~lr regardless of gradient scale."""
    for scale in [1e-3, 1.0, 1e3]:
        p = make_param([0.0])
        p.grad = np.array([scale], dtype=np.float32)
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-4)


def test_adam_converges_on_quadratic():
    p = make_param([5.0])
    opt = Adam([p], lr=0.3)
    for _ in range(200):
        p.grad = 2.0 * p.data  # d/dx x^2
        opt.step()
    assert abs(float(p.data[0])) < 0.05


def test_sgd_converges_on_quadratic():
    p = make_param([5.0])
    opt = SGD([p], lr=0.1, momentum=0.9)
    for _ in range(200):
        p.grad = 2.0 * p.data
        opt.step()
    assert abs(float(p.data[0])) < 1e-2


def test_global_grad_norm():
    p1, p2 = make_param([3.0]), make_param([4.0])
    p1.grad = np.array([3.0], dtype=np.float32)
    p2.grad = np.array([4.0], dtype=np.float32)
    assert global_grad_norm([p1, p2]) == pytest.approx(5.0)


def test_clip_grad_norm_scales_down():
    p = make_param([0.0, 0.0])
    p.grad = np.array([3.0, 4.0], dtype=np.float32)
    pre = clip_grad_norm([p], max_norm=1.0)
    assert pre == pytest.approx(5.0)
    np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-6)


def test_clip_grad_norm_no_op_below_threshold():
    p = make_param([0.0])
    p.grad = np.array([0.5], dtype=np.float32)
    clip_grad_norm([p], max_norm=1.0)
    np.testing.assert_allclose(p.grad, [0.5])


# -- losses ----------------------------------------------------------------

def test_cross_entropy_gradient_numeric():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6))
    targets = np.array([0, 2, 5, 1])
    _, grad = softmax_cross_entropy(logits, targets)
    eps = 1e-5
    for idx in [(0, 0), (1, 3), (3, 5)]:
        hi = logits.copy()
        hi[idx] += eps
        lo = logits.copy()
        lo[idx] -= eps
        numeric = (softmax_cross_entropy(hi, targets)[0]
                   - softmax_cross_entropy(lo, targets)[0]) / (2 * eps)
        assert grad[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


def test_cross_entropy_perfect_prediction_near_zero():
    logits = np.full((2, 3), -20.0)
    logits[0, 1] = 20.0
    logits[1, 2] = 20.0
    loss, _ = softmax_cross_entropy(logits, np.array([1, 2]))
    assert loss < 1e-6


def test_sequence_cross_entropy_matches_flat():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(2, 3, 5))
    targets = rng.integers(0, 5, size=(2, 3))
    seq_loss, seq_grad = sequence_cross_entropy(logits, targets)
    flat_loss, _ = softmax_cross_entropy(logits.reshape(6, 5),
                                         targets.reshape(-1))
    assert seq_loss == pytest.approx(flat_loss)
    assert seq_grad.shape == logits.shape


def test_span_loss_symmetric_in_heads():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 8, 2))
    starts = np.array([1, 2, 3])
    ends = np.array([2, 4, 5])
    loss, grad = span_extraction_loss(logits, starts, ends)
    assert grad.shape == logits.shape
    assert loss > 0
    # gradient on the start head sums to zero per sample (softmax CE)
    np.testing.assert_allclose(grad[:, :, 0].sum(axis=1), np.zeros(3),
                               atol=1e-7)


def test_mse_loss_and_grad():
    pred = np.array([1.0, 2.0])
    target = np.array([0.0, 0.0])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx(2.5)
    np.testing.assert_allclose(grad, [1.0, 2.0])


def test_perplexity_monotone_and_capped():
    assert perplexity(1.0) == pytest.approx(np.e)
    assert perplexity(0.5) < perplexity(1.0)
    assert np.isfinite(perplexity(1e9))
