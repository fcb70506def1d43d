"""Tests for the PowerSGD low-rank compressor and orthonormalization."""

import numpy as np
import pytest

from repro.cluster import get_machine
from repro.collectives import time_allreduce
from repro.compression import (
    CompressionSpec,
    PowerSGDCompressor,
    orthonormalize,
)
from repro.core import CGXConfig, CommunicationEngine


def _spec(rank=4):
    return CompressionSpec("powersgd", rank=rank)


def test_orthonormalize_produces_orthonormal_columns():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(20, 5)).astype(np.float32)
    q = orthonormalize(m)
    gram = q.T @ q
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-4)


def test_orthonormalize_handles_degenerate_columns():
    m = np.zeros((4, 2), dtype=np.float32)
    m[:, 0] = [1, 0, 0, 0]
    m[:, 1] = [2, 0, 0, 0]  # linearly dependent
    q = orthonormalize(m)
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-5)


def test_exact_recovery_of_low_rank_matrix():
    """A genuinely rank-r matrix is recovered (nearly) exactly."""
    rng = np.random.default_rng(1)
    u = rng.normal(size=(32, 2)).astype(np.float32)
    v = rng.normal(size=(16, 2)).astype(np.float32)
    m = u @ v.T
    comp = PowerSGDCompressor(_spec(rank=2))
    out = m
    for _ in range(5):  # a few warm-start iterations
        out = comp.roundtrip(m, rng, key="m")
    rel = np.linalg.norm(out - m) / np.linalg.norm(m)
    assert rel < 1e-3


def test_warm_start_improves_approximation():
    rng = np.random.default_rng(2)
    # matrix with decaying spectrum: power iteration converges to top-r
    u, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    s = np.diag(1.0 / (1 + np.arange(40.0)) ** 2)
    m = (u @ s @ u.T).astype(np.float32)
    comp = PowerSGDCompressor(_spec(rank=4))
    first = np.linalg.norm(comp.roundtrip(m, rng, key="w") - m)
    for _ in range(15):
        last = np.linalg.norm(comp.roundtrip(m, rng, key="w") - m)
    assert last < first


def test_1d_tensors_stay_dense():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100).astype(np.float32)
    comp = PowerSGDCompressor(_spec())
    out = comp.roundtrip(x, rng)
    np.testing.assert_array_equal(out, x)
    assert _spec().wire_bytes(100, (100,)) == 400  # dense fp32


def test_wire_bytes_factor_accounting():
    spec = _spec(rank=4)
    assert spec.wire_bytes(64 * 32, (64, 32)) == (64 + 32) * 4 * 4


def test_rank_clamped_to_matrix_dims():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 5)).astype(np.float32)
    comp = PowerSGDCompressor(_spec(rank=10))
    compressed = comp.compress(m, rng, key="small")
    assert compressed.payload["p"].shape == (3, 3)


def test_higher_rank_lower_error():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(64, 64)).astype(np.float32)
    errors = []
    for rank in [1, 4, 16]:
        comp = PowerSGDCompressor(_spec(rank=rank))
        out = m
        for _ in range(5):
            out = comp.roundtrip(m, rng, key=f"r{rank}")
        errors.append(float(np.linalg.norm(out - m)))
    assert errors == sorted(errors, reverse=True)


def test_flops_model_positive_for_matrices_zero_for_vectors():
    comp = PowerSGDCompressor(_spec(rank=4))
    assert comp.flops(64 * 32, (64, 32)) > 0
    assert comp.flops(100, (100,)) == 0.0


def test_rank_validation():
    with pytest.raises(ValueError):
        CompressionSpec("powersgd", rank=0)


def test_powersgd_rejects_fp16():
    """The power iteration diverges at half precision, so the operator
    refuses fp16 gradients and declares itself fp32-only: the step model
    charges a PowerSGD run its model's fp32 compute factor (Table 6)."""
    comp = PowerSGDCompressor(_spec(rank=2))
    rng = np.random.default_rng(7)
    for shape in ((8, 8), (8,)):
        with pytest.raises(TypeError, match="fp16"):
            comp.compress(np.ones(shape, dtype=np.float16), rng)
    assert PowerSGDCompressor.fp32_only


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the engine feeds PowerSGD flat 1-D chunks, so "
                          "its data path is dense (ROADMAP item 2)")
def test_data_path_wire_bytes_match_the_timed_factor_pair():
    """One 256x128 rank-4 layer, world 4, SRA: the timed pair moves the
    P and Q factors (36,864 bytes); the data path should move the same."""
    config = CGXConfig(scheme="sra", compression=_spec(rank=4),
                       filtered_keywords=(), min_compress_numel=0)
    rng = np.random.default_rng(8)
    grads = [{"w": rng.standard_normal((256, 128)).astype(np.float32)}
             for _ in range(4)]
    _, report = CommunicationEngine(config).reduce(
        grads, np.random.default_rng(0))
    timed = time_allreduce(get_machine("rtx3090-8x").network(), [0, 1, 2, 3],
                           (256 * 128, (256, 128)), config.compression)
    assert timed.wire_bytes == 36_864
    assert report.wire_bytes == timed.wire_bytes
