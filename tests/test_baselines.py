"""Tests for the GRACE baseline and the PowerSGD facts Table 6 relies on."""

import numpy as np
import pytest

from repro.baselines import GRACE_NO_BUCKETING, grace_config
from repro.compression import CompressionSpec, PowerSGDCompressor, make_compressor


# -- GRACE -------------------------------------------------------------------

def test_grace_config_characteristics():
    config = grace_config()
    assert config.scheme == "allgather"
    assert config.compression.bucket_size == GRACE_NO_BUCKETING
    assert config.compression.wire_dtype_bits == 8
    assert config.filtered_keywords == ()


def test_grace_wire_is_int8_even_at_4_bits():
    spec = grace_config(bits=4).compression
    cgx = CompressionSpec("qsgd", bits=4, bucket_size=128)
    n = 1 << 20
    assert spec.wire_bytes(n) > 1.8 * cgx.wire_bytes(n)


def test_grace_unbucketed_error_worse_than_cgx():
    """No bucketing = one scale for the whole tensor = higher error,
    especially on heavy-tailed gradients."""
    rng = np.random.default_rng(0)
    x = rng.standard_t(df=3, size=65_536).astype(np.float32)  # heavy tails
    grace = make_compressor(grace_config(bits=4).compression)
    cgx = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=128))
    err_grace = np.linalg.norm(grace.roundtrip(x, np.random.default_rng(1)) - x)
    err_cgx = np.linalg.norm(cgx.roundtrip(x, np.random.default_rng(1)) - x)
    assert err_grace > 1.5 * err_cgx


# -- PowerSGD operator (the Table 6 baseline) -------------------------------------

def worker_grads(world=4, seed=0):
    out = []
    for w in range(world):
        rng = np.random.default_rng(seed + w)
        out.append({
            "fc.weight": rng.normal(size=(32, 16)).astype(np.float32),
            "fc.bias": rng.normal(size=32).astype(np.float32),
        })
    return out


def _powersgd(rank):
    return PowerSGDCompressor(CompressionSpec("powersgd", rank=rank))


def test_powersgd_bias_reduced_densely_and_exactly():
    grads = worker_grads()
    comp = _powersgd(4)
    rng = np.random.default_rng(0)
    sent = [comp.roundtrip(g["fc.bias"], rng, key="fc.bias") for g in grads]
    expected = np.mean([g["fc.bias"] for g in grads], axis=0)
    np.testing.assert_allclose(np.mean(sent, axis=0), expected, rtol=1e-5)


def test_powersgd_matrix_result_is_low_rank():
    comp = _powersgd(2)
    rng = np.random.default_rng(0)
    for g in worker_grads():
        out = comp.roundtrip(g["fc.weight"], rng, key="fc.weight")
        singular_values = np.linalg.svd(out, compute_uv=False)
        assert np.sum(singular_values > 1e-4) <= 2


def test_powersgd_wire_accounting():
    comp = _powersgd(4)
    rng = np.random.default_rng(0)
    grads = worker_grads()[0]
    wire = sum(comp.compress(g, rng, key=name).nbytes
               for name, g in grads.items())
    # fc.weight factors (32+16)*4*4 bytes + dense bias 32*4
    assert wire == (32 + 16) * 4 * 4 + 32 * 4


def test_powersgd_invalid_rank():
    with pytest.raises(ValueError):
        CompressionSpec("powersgd", rank=0)
