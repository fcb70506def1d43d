"""Tests for 1-bit SGD and Deep Gradient Compression."""

import warnings

import numpy as np
import pytest

from repro.compression import (
    CompressionSpec,
    DGCCompressor,
    ErrorFeedback,
    OneBitCompressor,
    make_compressor,
)


# -- 1-bit SGD -----------------------------------------------------------------

def test_onebit_wire_accounting():
    spec = CompressionSpec("onebit", bucket_size=128)
    # 1 bit/value + 2 fp32 means per bucket
    assert spec.wire_bytes(1024) == 128 + 8 * 8
    assert spec.compression_ratio(1 << 20) > 20


def test_onebit_reconstruction_is_two_level():
    rng = np.random.default_rng(0)
    x = rng.normal(size=128).astype(np.float32)
    comp = OneBitCompressor(CompressionSpec("onebit", bucket_size=128))
    out = comp.roundtrip(x, rng)
    assert len(np.unique(out)) <= 2
    # signs preserved
    assert np.all(np.sign(out[x > 0]) >= 0)
    assert np.all(np.sign(out[x < 0]) <= 0)


def test_onebit_means_are_least_squares_optimal():
    """Reconstruction levels equal the conditional means."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=128).astype(np.float32)
    comp = OneBitCompressor(CompressionSpec("onebit", bucket_size=128))
    out = comp.roundtrip(x, rng)
    pos_level = out[x >= 0][0]
    assert pos_level == pytest.approx(float(x[x >= 0].mean()), rel=1e-5)


def test_onebit_shape_and_tail_buckets():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 21)).astype(np.float32)   # 147: tail bucket
    comp = make_compressor(CompressionSpec("onebit", bucket_size=64))
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape


def test_onebit_with_error_feedback_converges_on_quadratic():
    """EF makes sign-SGD track the true gradient over time."""
    target = np.array([1.0, -0.2, 0.05, -3.0], dtype=np.float32)
    ef = ErrorFeedback(OneBitCompressor(
        CompressionSpec("onebit", bucket_size=4)))
    x = np.zeros(4, dtype=np.float32)
    rng = np.random.default_rng(3)
    for _ in range(400):
        grad = x - target
        x -= 0.05 * ef.roundtrip(grad, rng, key="w")
    np.testing.assert_allclose(x, target, atol=0.1)


def test_onebit_zero_bucket_safe():
    comp = make_compressor(CompressionSpec("onebit", bucket_size=32))
    x = np.zeros(64, dtype=np.float32)
    out = comp.roundtrip(x, np.random.default_rng(0))
    np.testing.assert_array_equal(out, x)


# -- DGC --------------------------------------------------------------------------

def _dgc(density=0.1):
    return DGCCompressor(CompressionSpec("dgc", density=density))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_onebit_non_finite_bucket_is_silent_and_contained(bad):
    """Signs come from a comparison, never a NaN cast: no warning, the
    same sign bytes as for any other value of that sign, and only the
    bad value's side of its own bucket decodes non-finite."""
    comp = make_compressor(CompressionSpec("onebit", bucket_size=128))
    x = np.random.default_rng(0).normal(size=300).astype(np.float32)
    x[130] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compressed = comp.compress(x, np.random.default_rng(1))
        out = comp.decompress(compressed)
    x[130] = -1.0 if bad < 0 else 1.0
    clean = comp.compress(x, np.random.default_rng(1))
    np.testing.assert_array_equal(compressed.payload["signs"],
                                  clean.payload["signs"])
    mean = "neg_mean" if bad < 0 else "pos_mean"
    assert not np.isfinite(compressed.payload[mean][1])
    same_side = (x[128:256] < 0) == (bad < 0)
    assert not np.isfinite(out[128:256][same_side]).any()
    assert np.isfinite(out[128:256][~same_side]).all()
    assert np.isfinite(out[:128]).all() and np.isfinite(out[256:]).all()


def test_dgc_transmits_k_values():
    rng = np.random.default_rng(4)
    x = rng.normal(size=100).astype(np.float32)
    comp = _dgc(density=0.1)
    compressed = comp.compress(x, rng, key="a")
    assert compressed.payload["indices"].size == 10


def test_dgc_momentum_correction_accumulates():
    """Coordinates below the threshold gather momentum until sent; all
    coordinates are eventually transmitted."""
    grad = np.array([1.0, 0.02, 0.02, 0.02], dtype=np.float32)
    comp = _dgc(density=0.25)   # k=1
    rng = np.random.default_rng(5)
    transmitted = np.zeros_like(grad)
    for _ in range(120):
        transmitted += comp.roundtrip(grad, rng, key="w")
    assert np.all(transmitted != 0)
    # momentum correction amplifies: total sent mass exceeds plain sums
    assert transmitted[0] > 100 * grad[0]


def test_dgc_masking_resets_transmitted_coordinates():
    rng = np.random.default_rng(6)
    x = np.array([5.0, 0.1], dtype=np.float32)
    comp = _dgc(density=0.5)  # k=1 -> always the big one
    comp.roundtrip(x, rng, key="m")
    assert comp._velocity["m"][0] == 0.0
    assert comp._momentum_buf["m"][0] == 0.0
    assert comp._velocity["m"][1] != 0.0


def test_dgc_keys_independent():
    rng = np.random.default_rng(8)
    comp = _dgc(density=0.2)
    a = rng.normal(size=50).astype(np.float32)
    comp.roundtrip(a, rng, key="a")
    assert "b" not in comp._velocity
    comp.roundtrip(a, rng, key="b")
    assert set(comp._velocity) == {"a", "b"}


def test_dgc_wire_matches_topk():
    dgc = CompressionSpec("dgc", density=0.05)
    topk = CompressionSpec("topk", density=0.05)
    assert dgc.wire_bytes(10_000) == topk.wire_bytes(10_000)


def test_dgc_trains_through_engine():
    """DGC slots into the DDP engine and converges — but only with a
    momentum-free optimizer: its *own* momentum correction stacks with
    optimizer momentum and diverges (the hyperparameter sensitivity the
    paper holds against sparsifiers, which our divergence check below
    also demonstrates)."""
    import dataclasses

    from repro.core import CGXConfig
    from repro.training import DataParallelTrainer, get_recipe, make_task

    config = CGXConfig(compression=CompressionSpec("dgc", density=0.05))
    recipe = dataclasses.replace(get_recipe("mlp"), momentum=0.0, lr=0.05)
    task = make_task("mlp", batch_size=recipe.batch_size)
    trainer = DataParallelTrainer(task, world_size=2, config=config,
                                  recipe=recipe, seed=4)
    result = trainer.train(steps=100, eval_every=100)
    assert result.final_metric > 0.9
    assert trainer.in_sync()


def test_dgc_diverges_with_stacked_momentum():
    """The untuned combination (DGC momentum + SGD momentum) blows up —
    reproducing why the paper rejects sparsifiers for Goal 2."""
    import numpy as np

    from repro.core import CGXConfig
    from repro.training import train_family

    config = CGXConfig(compression=CompressionSpec("dgc", density=0.05))
    result = train_family("mlp", world_size=2, config=config, steps=80,
                          eval_every=80, seed=4)
    assert not np.isfinite(result.final_loss) or result.final_metric < 0.5
