"""Tests for TopK sparsification and error feedback."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    CompressionSpec,
    ErrorFeedback,
    TopKCompressor,
    make_compressor,
)


def _spec(density=0.1):
    return CompressionSpec("topk", density=density)


def test_keeps_exactly_k_largest():
    x = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 1.0, 0.0, -2.0],
                 dtype=np.float32)
    comp = TopKCompressor(_spec(density=0.25))  # k = 2
    out = comp.roundtrip(x, np.random.default_rng(0))
    nonzero = np.flatnonzero(out)
    assert set(nonzero) == {1, 3}
    assert out[1] == -5.0 and out[3] == 3.0


def test_density_one_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64).astype(np.float32)
    comp = TopKCompressor(_spec(density=1.0))
    np.testing.assert_array_equal(comp.roundtrip(x, rng), x)


def test_wire_bytes_accounting():
    spec = _spec(density=0.01)
    # k = 10 of 1000, 8 bytes each (int32 index + fp32 value)
    assert spec.wire_bytes(1000) == 10 * 8


def test_compression_preserves_shape():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(16, 8)).astype(np.float32)
    comp = TopKCompressor(_spec(0.1))
    assert comp.roundtrip(x, rng).shape == (16, 8)


@given(n=st.integers(10, 500), density=st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_topk_error_never_exceeds_input_norm(n, density):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n).astype(np.float32)
    comp = TopKCompressor(CompressionSpec("topk", density=density))
    out = comp.roundtrip(x, np.random.default_rng(0))
    # kept values are exact; error is the norm of the dropped tail
    kept = np.flatnonzero(out)
    np.testing.assert_allclose(out[kept], x[kept])
    assert np.linalg.norm(out - x) <= np.linalg.norm(x) + 1e-6


def test_error_feedback_recovers_dropped_mass():
    """With EF, repeated compression of a constant gradient transmits the
    full mass over time: residual + transmitted == accumulated input."""
    grad = np.array([1.0, 0.01, 0.01, 0.01], dtype=np.float32)
    ef = ErrorFeedback(TopKCompressor(_spec(density=0.25)))  # k=1
    rng = np.random.default_rng(3)
    transmitted = np.zeros_like(grad)
    steps = 200
    for _ in range(steps):
        transmitted += ef.roundtrip(grad, rng, key="w")
    # small coordinates are not starved: each got through at least once
    assert np.all(transmitted > 0)
    # conservation: accumulated input == transmitted + outstanding residual
    residual = ef._residuals["w"]
    np.testing.assert_allclose(transmitted + residual, steps * grad,
                               rtol=1e-4)


def test_error_feedback_invariant_per_step():
    """input + residual_before == transmitted + residual_after."""
    rng = np.random.default_rng(4)
    ef = ErrorFeedback(TopKCompressor(_spec(density=0.2)))
    grad = rng.normal(size=50).astype(np.float32)
    total_in = np.zeros_like(grad)
    total_out = np.zeros_like(grad)
    for step in range(20):
        total_in += grad
        total_out += ef.roundtrip(grad, rng, key="k")
    residual = total_in - total_out
    assert np.linalg.norm(residual) == pytest.approx(
        ef.residual_norm("k"), rel=1e-4
    )


def test_error_feedback_keys_are_independent():
    rng = np.random.default_rng(5)
    ef = ErrorFeedback(TopKCompressor(_spec(density=0.2)))
    a = rng.normal(size=20).astype(np.float32)
    b = rng.normal(size=20).astype(np.float32)
    ef.roundtrip(a, rng, key="a")
    ef.roundtrip(b, rng, key="b")
    assert ef.residual_norm("a") != pytest.approx(ef.residual_norm("b"))


def test_without_error_feedback_mass_is_lost():
    """Contrast test: same workload as the EF test but without feedback
    permanently drops the small coordinates — the reason the paper always
    pairs TopK with error correction."""
    grad = np.array([1.0, 0.01, 0.01, 0.01], dtype=np.float32)
    comp = TopKCompressor(_spec(density=0.25))
    rng = np.random.default_rng(6)
    transmitted = np.zeros_like(grad)
    for _ in range(50):
        transmitted += comp.roundtrip(grad, rng)
    assert transmitted[1] == 0.0  # never transmitted


def test_density_validation():
    with pytest.raises(ValueError):
        CompressionSpec("topk", density=0.0)
    with pytest.raises(ValueError):
        CompressionSpec("topk", density=1.5)


def test_error_feedback_spec_passthrough():
    ef = ErrorFeedback(make_compressor(_spec(0.3)))
    assert ef.spec.density == 0.3
