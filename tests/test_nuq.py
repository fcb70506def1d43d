"""Tests for NUQSGD (exponential-level quantization) and scaling modes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import (
    CompressionSpec,
    NUQSGDCompressor,
    exponential_levels,
    make_compressor,
    measure_error,
)


def test_exponential_levels_structure():
    levels = exponential_levels(4)  # 7 nonzero levels + 0
    assert levels[0] == 0.0
    assert levels[-1] == 1.0
    assert len(levels) == 8
    # geometric: each nonzero level doubles the previous
    ratios = levels[2:] / levels[1:-1]
    np.testing.assert_allclose(ratios, 2.0)


def test_exponential_levels_rejects_tiny_bits():
    with pytest.raises(ValueError):
        exponential_levels(1)


def test_nuq_roundtrip_shape_and_registry():
    spec = CompressionSpec("nuq", bits=4, bucket_size=64)
    comp = make_compressor(spec)
    assert isinstance(comp, NUQSGDCompressor)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 17)).astype(np.float32)
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape


def test_nuq_zero_vector_exact():
    comp = make_compressor(CompressionSpec("nuq", bits=4, bucket_size=64))
    x = np.zeros(100, dtype=np.float32)
    np.testing.assert_array_equal(comp.roundtrip(x, np.random.default_rng(0)),
                                  x)


@given(bits=st.integers(2, 8), v=st.floats(0.0, 1.0, width=32))
@example(bits=4, v=1.0)
@example(bits=4, v=0.375)
@example(bits=8, v=2.0 ** -149)
@settings(max_examples=60, deadline=None)
def test_nuq_unbiased(bits, v):
    # of the 2^16 draws exactly ceil(prob_up * 2^16) round up, so the
    # expected value overshoots v by less than 2^-16 of its level gap Δ
    # (a bias of at most Δ * 2^-16)
    comp = NUQSGDCompressor(CompressionSpec("nuq", bits=bits, bucket_size=128))
    levels = comp.levels
    level = comp._quantize(np.full(1 << 16, v, dtype=np.float32),
                           np.arange(1 << 16, dtype=np.uint16))
    hi = min(max(int(np.searchsorted(levels, v)), 1), len(levels) - 1)
    gap = levels[hi] - levels[hi - 1]
    prob_up = min(max((v - levels[hi - 1]) / gap, 0.0), 1.0)
    assert set(np.unique(level)) <= {hi - 1, hi}
    ups = int(np.count_nonzero(level == hi))
    assert ups == math.ceil(prob_up * 65536)
    mean = levels[hi - 1] + gap * ups / 65536
    assert 0.0 <= mean - v <= gap * 2.0 ** -16


def test_nuq_values_on_the_level_grid():
    rng = np.random.default_rng(2)
    x = rng.normal(size=128).astype(np.float32)
    comp = NUQSGDCompressor(CompressionSpec("nuq", bits=4, bucket_size=128))
    out = comp.roundtrip(x, rng)
    scale = float(np.abs(x).max())
    normalized = np.abs(out) / scale
    levels = exponential_levels(4)
    for value in normalized:
        assert np.min(np.abs(levels - value)) < 1e-6


def test_nuq_wire_bytes_match_qsgd():
    nuq = CompressionSpec("nuq", bits=4, bucket_size=128)
    qsgd = CompressionSpec("qsgd", bits=4, bucket_size=128)
    assert nuq.wire_bytes(10_000) == qsgd.wire_bytes(10_000)


def test_nuq_beats_l2_qsgd_at_low_bits():
    """The NUQSGD paper's claim, reproduced: with L2 bucket scaling,
    exponential levels have lower variance than the uniform grid at
    low bit-widths."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=1 << 16).astype(np.float32)
    for bits in [3, 4]:
        uniform = measure_error(
            CompressionSpec("qsgd", bits=bits, bucket_size=128,
                            scaling="l2"), x, np.random.default_rng(1))
        exponential = measure_error(
            CompressionSpec("nuq", bits=bits, bucket_size=128,
                            scaling="l2"), x, np.random.default_rng(1))
        assert exponential.relative < uniform.relative, bits


def test_cgx_max_scaling_beats_both_l2_variants():
    """The design-justification result: CGX's max-scaled small-bucket
    uniform quantizer has lower error than either L2-scaled scheme."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=1 << 16).astype(np.float32)
    for bits in [3, 4, 8]:
        cgx = measure_error(
            CompressionSpec("qsgd", bits=bits, bucket_size=128), x,
            np.random.default_rng(1)).relative
        l2_uniform = measure_error(
            CompressionSpec("qsgd", bits=bits, bucket_size=128,
                            scaling="l2"), x,
            np.random.default_rng(1)).relative
        l2_exp = measure_error(
            CompressionSpec("nuq", bits=bits, bucket_size=128,
                            scaling="l2"), x,
            np.random.default_rng(1)).relative
        assert cgx <= min(l2_uniform, l2_exp), bits


def test_scaling_validation():
    with pytest.raises(ValueError):
        CompressionSpec("qsgd", bits=4, scaling="minmax")


def test_nuq_in_collectives():
    """NUQ slots into the engine/collective stack like any compressor."""
    from repro.collectives import allreduce

    bufs = [np.random.default_rng(i).normal(size=300).astype(np.float32)
            for i in range(4)]
    comp = make_compressor(CompressionSpec("nuq", bits=4, bucket_size=64))
    outs, stats = allreduce("sra", bufs, comp, np.random.default_rng(0))
    exact = np.sum(bufs, axis=0)
    rel = np.linalg.norm(outs[0] - exact) / np.linalg.norm(exact)
    assert rel < 0.6
    assert all(np.array_equal(outs[0], o) for o in outs)


def test_nuq_huge_bucket_size_does_not_overallocate():
    """Regression twin of the QSGD huge-bucket test."""
    spec = CompressionSpec("nuq", bits=4, bucket_size=1 << 30)
    comp = make_compressor(spec)
    rng = np.random.default_rng(0)
    x = rng.normal(size=4096).astype(np.float32)
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape
