"""Tests for layer filters, package planning, and the engine data path."""

import dataclasses

import numpy as np
import pytest

from repro.compression import CompressionSpec
from repro.core import (
    CGXConfig,
    CommunicationEngine,
    LayerFilter,
    LayerInfo,
    Package,
)

L = LayerInfo


def layers_example():
    return [
        L("head.weight", 10_000, (100, 100)),
        L("head.bias", 100, (100,)),
        L("blocks.1.ln2.weight", 64, (64,)),
        L("blocks.1.mlp.fc1.weight", 65_536, (256, 256)),
        L("embed.weight", 1_000_000, (10_000, 100)),
        L("stem.bn1.weight", 16, (16,)),
    ]


# -- filters ------------------------------------------------------------------

def test_filter_matches_keywords_case_insensitive():
    f = LayerFilter(("bias", "bn"), 0)
    assert f.excluded(L("conv.BIAS", 10))
    assert f.excluded(L("stem.bn1.weight", 10))
    assert not f.excluded(L("conv.weight", 10))


def test_filter_min_size():
    f = LayerFilter((), min_compress_numel=100)
    assert f.excluded(L("tiny.weight", 99))
    assert not f.excluded(L("big.weight", 100))


def test_partition_preserves_order():
    f = LayerFilter(("bias", "bn", "ln"), 1000)
    compressed, filtered = f.partition(layers_example())
    assert [l.name for l in compressed] == [
        "head.weight", "blocks.1.mlp.fc1.weight", "embed.weight"]
    assert [l.name for l in filtered] == [
        "head.bias", "blocks.1.ln2.weight", "stem.bn1.weight"]


# -- planning ------------------------------------------------------------------

def test_cgx_plan_per_layer_plus_fused_filtered():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    plan = engine.plan(layers_example(), mode="cgx")
    names = [p.name for p in plan]
    assert "embed.weight" in names
    assert "filtered" in names
    filtered_pkg = next(p for p in plan if p.name == "filtered")
    assert filtered_pkg.spec.method == "none"
    assert {l.name for l in filtered_pkg.layers} == {
        "head.bias", "blocks.1.ln2.weight", "stem.bn1.weight"}
    compressed = [p for p in plan if p.name != "filtered"]
    assert all(len(p.layers) == 1 for p in compressed)
    assert all(p.spec.method == "qsgd" for p in compressed)


def test_cgx_plan_respects_per_layer_overrides():
    config = CGXConfig.cgx_default()
    config.per_layer["embed.weight"] = CompressionSpec("topk", density=0.01)
    plan = CommunicationEngine(config).plan(layers_example())
    embed = next(p for p in plan if p.name == "embed.weight")
    assert embed.spec.method == "topk"


def test_fused_plan_buckets_by_bytes():
    config = CGXConfig.baseline_nccl()
    config.fusion_bytes = 300_000  # bytes
    engine = CommunicationEngine(config)
    plan = engine.plan(layers_example(), mode="fused")
    assert all(p.name.startswith("fused") for p in plan)
    # every bucket except possibly the last crosses the threshold
    for pkg in plan[:-1]:
        assert pkg.numel * 4 >= config.fusion_bytes
    total = sum(p.numel for p in plan)
    assert total == sum(l.numel for l in layers_example())


def test_unknown_plan_mode():
    with pytest.raises(ValueError):
        CommunicationEngine().plan(layers_example(), mode="magic")


def test_package_wire_bytes():
    pkg = CommunicationEngine(CGXConfig.cgx_default()).plan(
        layers_example())[0]
    assert pkg.wire_bytes() == pkg.spec.wire_bytes(pkg.numel)


def test_package_numel_is_the_layer_sum_and_no_field():
    fused = CGXConfig.baseline_nccl()
    fused.fusion_bytes = 300_000
    plans = [CommunicationEngine(CGXConfig.cgx_default()).plan(
                 layers_example(), mode="cgx"),
             CommunicationEngine(fused).plan(layers_example(), mode="fused")]
    for pkg in (pkg for plan in plans for pkg in plan):
        for _ in range(2):   # computed, then read back from the instance
            assert pkg.numel == sum(layer.numel for layer in pkg.layers)
    # equality, hashing and the field list ignore whether it was read
    read, unread = (Package("p", tuple(layers_example()[:3]),
                            CompressionSpec("none")) for _ in range(2))
    assert read.numel == 10_164
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert [f.name for f in dataclasses.fields(Package)] \
        == ["name", "layers", "spec"]


# -- data path -----------------------------------------------------------------

def make_grads(world, seed=0):
    shapes = {"fc.weight": (64, 32), "fc.bias": (64,),
              "ln.weight": (32,), "embed.weight": (128, 32)}
    out = []
    for w in range(world):
        rng = np.random.default_rng(seed + w)
        out.append({name: rng.normal(size=shape).astype(np.float32)
                    for name, shape in shapes.items()})
    return out


def test_reduce_dense_equals_mean():
    engine = CommunicationEngine(
        CGXConfig(compression=CompressionSpec("none")))
    grads = make_grads(4)
    reduced, report = engine.reduce(grads, np.random.default_rng(0))
    for name in grads[0]:
        expected = np.mean([g[name] for g in grads], axis=0)
        np.testing.assert_allclose(reduced[0][name], expected, rtol=1e-4,
                                   atol=1e-5)
    assert report.dense_bytes == sum(g.size * 4 for g in grads[0].values())


def test_reduce_filtered_layers_exact_even_when_compressing():
    """bias/ln tensors must come back exactly (fp32 path)."""
    engine = CommunicationEngine(
        CGXConfig.cgx_default().with_compression(
            CompressionSpec("qsgd", bits=2, bucket_size=64)))
    grads = make_grads(4)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0))
    for name in ["fc.bias", "ln.weight"]:
        expected = np.mean([g[name] for g in grads], axis=0)
        np.testing.assert_allclose(reduced[0][name], expected, rtol=1e-5,
                                   atol=1e-6)


def test_reduce_compressed_layers_approximate_but_identical():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    grads = make_grads(4)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0))
    name = "embed.weight"
    expected = np.mean([g[name] for g in grads], axis=0)
    rel = np.linalg.norm(reduced[0][name] - expected) / \
        np.linalg.norm(expected)
    assert 0 < rel < 0.5
    for w in range(1, 4):
        np.testing.assert_array_equal(reduced[0][name], reduced[w][name])


def test_reduce_shapes_restored():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    grads = make_grads(2)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0))
    for name, grad in grads[0].items():
        assert reduced[0][name].shape == grad.shape


def test_reduce_sum_mode():
    engine = CommunicationEngine(
        CGXConfig(compression=CompressionSpec("none")))
    grads = make_grads(3)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0),
                               average=False)
    expected = np.sum([g["fc.weight"] for g in grads], axis=0)
    np.testing.assert_allclose(reduced[0]["fc.weight"], expected, rtol=1e-4)


def test_reduce_rejects_mismatched_names():
    grads = make_grads(2)
    del grads[1]["fc.bias"]
    with pytest.raises(ValueError):
        CommunicationEngine().reduce(grads, np.random.default_rng(0))


def test_reduce_rejects_empty():
    with pytest.raises(ValueError):
        CommunicationEngine().reduce([], np.random.default_rng(0))


def test_report_compression_ratio():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    grads = make_grads(4)
    _, report = engine.reduce(grads, np.random.default_rng(0))
    assert report.compression_ratio > 2.0  # most bytes are the embedding
    assert report.packages >= 3
    assert report.wire_bytes > 0


def test_fused_mode_reduce_correct_dense():
    engine = CommunicationEngine(CGXConfig.baseline_nccl())
    grads = make_grads(4)
    reduced, report = engine.reduce(grads, np.random.default_rng(0),
                                    mode="fused")
    for name in grads[0]:
        expected = np.mean([g[name] for g in grads], axis=0)
        np.testing.assert_allclose(reduced[0][name], expected, rtol=1e-4,
                                   atol=1e-5)


def test_stateful_compressor_cached_across_calls():
    config = CGXConfig.cgx_default()
    config.per_layer["embed.weight"] = CompressionSpec(
        "topk", density=0.05, error_feedback=True)
    engine = CommunicationEngine(config)
    grads = make_grads(2)
    engine.reduce(grads, np.random.default_rng(0))
    comp = engine._compressors["embed.weight"]
    engine.reduce(grads, np.random.default_rng(1))
    assert engine._compressors["embed.weight"] is comp


# -- compressor cache across adaptive respec ----------------------------------

def test_compressor_for_carries_residuals_on_same_method_respec():
    spec = CompressionSpec("topk", density=0.05, error_feedback=True)
    config = CGXConfig(compression=spec)
    engine = CommunicationEngine(config)
    grads = make_grads(2)
    engine.reduce(grads, np.random.default_rng(0))
    before = engine._compressors["embed.weight"]
    norm_before = before.total_residual_norm()
    assert norm_before > 0  # topk at 5% leaves most of the gradient behind

    config.per_layer["embed.weight"] = CompressionSpec(
        "topk", density=0.2, error_feedback=True)
    layers = [L(name, g.size, tuple(g.shape)) for name, g in grads[0].items()]
    package = [p for p in engine.plan(layers) if p.name == "embed.weight"][0]
    after = engine._compressor_for(package)
    assert after is not before
    assert after.spec == package.spec
    assert after.total_residual_norm() == pytest.approx(norm_before)


def test_compressor_for_drops_residuals_on_method_change():
    spec = CompressionSpec("topk", density=0.05, error_feedback=True)
    config = CGXConfig(compression=spec)
    engine = CommunicationEngine(config)
    grads = make_grads(2)
    engine.reduce(grads, np.random.default_rng(0))
    assert engine._compressors["embed.weight"].total_residual_norm() > 0

    config.per_layer["embed.weight"] = CompressionSpec(
        "qsgd", bits=4, bucket_size=128, error_feedback=True)
    layers = [L(name, g.size, tuple(g.shape)) for name, g in grads[0].items()]
    package = [p for p in engine.plan(layers) if p.name == "embed.weight"][0]
    after = engine._compressor_for(package)
    # residuals are method-specific; a method change must start clean
    assert after.total_residual_norm() == 0


# -- scatter safety ------------------------------------------------------------

def test_scatter_outputs_of_fused_package_do_not_alias():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    grads = make_grads(2)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0))
    # fc.bias and ln.weight land in the fused "filtered" package and
    # historically came back as views into one shared flat buffer
    bias = reduced[0]["fc.bias"]
    ln = reduced[0]["ln.weight"]
    assert not np.shares_memory(bias, ln)
    snapshot = ln.copy()
    bias[:] = 1e6  # an optimizer mutating one gradient in place
    np.testing.assert_array_equal(ln, snapshot)


def test_scatter_outputs_are_mutation_safe_across_workers():
    engine = CommunicationEngine(CGXConfig.cgx_default())
    grads = make_grads(3)
    reduced, _ = engine.reduce(grads, np.random.default_rng(0))
    for a in range(3):
        for b in range(a + 1, 3):
            for name in reduced[a]:
                assert not np.shares_memory(reduced[a][name],
                                            reduced[b][name])
