"""Tests for the shape/dtype pipeline interpreter (SHP001..SHP005)."""

import numpy as np
import pytest

from repro.analysis.abstract import default_registry
from repro.analysis.shapes import (
    SCHEME_MODELS,
    SHAPE_RULES,
    SchemeModel,
    battery_specs,
    calibrate_payload_model,
    interpret_pipeline,
    symbolic_payload,
    symbolic_wire_bytes,
    verify_shapes,
)
from repro.compression import CompressionSpec, make_compressor
from repro.core import CGXConfig
from repro.core.serialization import measured_wire_bytes


def rules_of(findings):
    return sorted({f.rule for f in findings})


# -- the real repo interprets cleanly -----------------------------------------

def test_full_battery_is_clean():
    assert verify_shapes() == []


def test_battery_covers_every_registered_method():
    methods = {spec.method for spec in battery_specs()}
    assert methods == set(default_registry())


def test_scheme_models_cover_every_registered_scheme():
    from repro.collectives import ALGORITHMS

    assert set(SCHEME_MODELS) == set(ALGORITHMS)


def test_every_rule_has_a_description():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "shapes"]
    assert row.rule_table is SHAPE_RULES and row.family == "SHP"
    assert all(SHAPE_RULES.values())
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py


# -- the symbolic payload model matches reality -------------------------------

@pytest.mark.parametrize("spec", battery_specs(),
                         ids=lambda s: f"{s.method}-{s.wire_dtype_bits}"
                         if s.method == "qsgd" else s.method)
@pytest.mark.parametrize("shape", [(97,), (4, 33), (16, 16)])
def test_symbolic_bytes_match_real_serialization(spec, shape):
    rng = np.random.default_rng(3)
    array = rng.normal(size=shape).astype(np.float32)
    compressed = make_compressor(spec).compress(array, rng, key="t")
    assert symbolic_wire_bytes(symbolic_payload(spec, array.size, shape)) \
        == measured_wire_bytes(compressed)


def test_symbolic_payload_zero_elements_is_empty():
    assert symbolic_payload(CompressionSpec("qsgd"), 0) == ()


def test_symbolic_powersgd_dense_fallback_for_flat_buffers():
    spec = CompressionSpec("powersgd", rank=4)
    flat = symbolic_payload(spec, 4096, (4096,))
    assert [s.name for s in flat] == ["dense"]
    matrix = symbolic_payload(spec, 4096, (64, 64))
    assert [s.name for s in matrix] == ["p", "q"]
    assert symbolic_wire_bytes(matrix) < symbolic_wire_bytes(flat)


def test_calibration_pass_is_clean():
    assert calibrate_payload_model() == []


def test_calibration_catches_a_lying_compressor():
    from repro.compression.qsgd import QSGDCompressor

    class Padding(QSGDCompressor):
        def compress(self, array, rng, key=None):
            out = super().compress(array, rng, key=key)
            out.payload["norms"] = np.concatenate(
                [out.payload["norms"], np.zeros(1, dtype=np.float32)])
            return out

        def decompress(self, compressed):
            trimmed = compressed.copy()
            trimmed.payload["norms"] = trimmed.payload["norms"][:-1]
            return super().decompress(trimmed)

    registry = dict(default_registry())
    registry["qsgd"] = Padding
    findings = calibrate_payload_model(registry)
    assert "SHP003" in rules_of(findings)
    assert all(f.path == "<shape:calibration>" for f in findings)


# -- regression: broken pipelines must be caught ------------------------------

class OverclaimingSpec(CompressionSpec):
    """Claims three bytes more than it serializes."""

    def wire_bytes(self, numel, shape=None):
        return super().wire_bytes(numel, shape) + 3


def test_wire_claim_mismatch_fires_shp003_and_shp005():
    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=OverclaimingSpec("qsgd", bits=4)),
        worlds=(4,))
    assert {"SHP003", "SHP005"} <= set(rules_of(findings))


def test_gappy_partition_fires_shp004():
    def gappy(numel, world, node_of):
        half = numel // 2
        return [("gap", [(0, half), (half + 1, numel)])]

    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=CompressionSpec("qsgd")),
        schemes={"gap": SchemeModel("gap", gappy)}, worlds=(4,))
    assert rules_of(findings) == ["SHP004"]
    assert "contiguous" in findings[0].message


def test_short_partition_fires_shp004():
    def short(numel, world, node_of):
        return [("short", [(0, numel - 1)])]

    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=CompressionSpec("none")),
        schemes={"short": SchemeModel("short", short)}, worlds=(4,))
    assert rules_of(findings) == ["SHP004"]


def test_shattering_partition_fires_metadata_inflation():
    # 64-element chunks for 4 ranks: every chunk pays the max(1, ...)
    # sparsifier floor, and the chunk count is unmoored from the world
    from repro.analysis.shapes import _check_chunks

    def shatter(numel, world, node_of):
        return [("shatter", [(i, min(i + 64, numel))
                             for i in range(0, numel, 64)])]

    verdict = _check_chunks(CompressionSpec("topk", density=0.001), 100_000,
                            SchemeModel("shatter", shatter), 4, None)
    assert [(rule, phase) for rule, phase, _ in verdict] == [
        ("SHP004", "shatter")]
    assert "inflates" in verdict[0][2]


def test_fp16_accumulator_fires_shp002():
    def whole(numel, world, node_of):
        return [("w", [(0, numel)])]

    narrow = {"half": SchemeModel("half", whole,
                                  accumulator_dtype="float16")}
    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=CompressionSpec("qsgd")),
        schemes=narrow, worlds=(4,))
    assert "SHP002" in rules_of(findings)


def test_narrowing_contract_fires_shp002():
    from repro.compression.contracts import CompressorContract
    from repro.compression.qsgd import QSGDCompressor

    class NarrowQSGD(QSGDCompressor):
        contract = CompressorContract("qsgd", uses_rng=True,
                                      output_dtype="float16",
                                      supported_bits=(2, 3, 4, 5, 6, 7, 8))

    registry = dict(default_registry())
    registry["qsgd"] = NarrowQSGD
    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=CompressionSpec("qsgd")),
        worlds=(4,), registry=registry)
    assert "SHP002" in rules_of(findings)


def test_dropped_tensor_fires_shp001():
    import dataclasses

    from repro.analysis.shapes import _check_plan
    from repro.core import CommunicationEngine
    from repro.models import build_spec

    model = build_spec("vgg16")
    truncated = dataclasses.replace(model, tensors=model.tensors[:-1])
    config = CGXConfig(compression=CompressionSpec("qsgd"))
    # sanity: the untruncated plan is clean
    assert interpret_pipeline("vgg16", config, worlds=(4,),
                              model=model) == []
    # plan built from the truncated model: the final tensor never gets
    # a package
    engine = CommunicationEngine(config)
    packages = engine.plan(truncated.layer_infos())
    findings = _check_plan("vgg16", model, packages, "qsgd",
                           default_registry())
    assert "SHP001" in rules_of(findings)
    assert any("drops" in f.message for f in findings)


# -- chunk math matches the real collectives ----------------------------------

@pytest.mark.parametrize("scheme", sorted(SCHEME_MODELS))
@pytest.mark.parametrize("world", [2, 4, 5])
def test_partitions_match_collectives_chunking(scheme, world):
    from repro.collectives.base import chunk_bounds

    numel = 100_003
    node_of = [r // 2 for r in range(world)] if scheme == "hier" else None
    for phase, bounds in SCHEME_MODELS[scheme].phases(numel, world, node_of):
        n = len(bounds)
        if n > 1:  # chunked phases must mirror chunk_bounds exactly
            assert bounds == chunk_bounds(numel, n), (scheme, phase)
        assert bounds[0][0] == 0 and bounds[-1][1] == numel


def test_hier_degrades_to_sra_on_one_node():
    flat = SCHEME_MODELS["hier"].phases(1000, 4, None)
    sra = SCHEME_MODELS["sra"].phases(1000, 4, None)
    assert flat == sra


def test_adaptive_config_battery_is_clean():
    from repro.analysis.shapes import _adaptive_config
    from repro.models import build_spec

    config = _adaptive_config(CompressionSpec("qsgd", bits=4, bucket_size=128))
    assert config.per_layer
    assert interpret_pipeline("transformer_xl:adaptive", config,
                              model=build_spec("transformer_xl")) == []


def test_findings_carry_shape_source_and_world():
    findings = interpret_pipeline(
        "vgg16", CGXConfig(compression=OverclaimingSpec("qsgd", bits=4)),
        worlds=(4,))
    sample = findings[0]
    assert sample.source == "shape"
    assert sample.path == "<shape:vgg16>"
    assert all(f.world in (0, 4) for f in findings)


# -- one verdict per distinct chunk fact --------------------------------------

def gappy(numel, world, node_of):
    half = numel // 2
    return [("gap", [(0, half), (half + 1, numel)])]


def per_package_reference(model_name, spec, schemes, worlds):
    """The battery by definition: every package checked on its own."""
    from repro.analysis.shapes import _check_chunks, _check_plan
    from repro.analysis.findings import Finding
    from repro.core import CommunicationEngine
    from repro.models import build_spec

    model = build_spec(model_name)
    packages = CommunicationEngine(CGXConfig(compression=spec)).plan(
        model.layer_infos())
    facts = {(p.spec, p.numel) for p in packages}
    assert len(facts) < len(packages)  # repeated sizes: the memo is hit
    out = list(_check_plan(model_name, model, packages, spec.method,
                           default_registry()))
    for scheme in schemes.values():
        for world in worlds:
            node_of = tuple(rank // 2 for rank in range(world)) \
                if scheme.name == "hier" else None
            for package in packages:
                for rule, phase, detail in _check_chunks(
                        package.spec, package.numel, scheme, world, node_of):
                    out.append(Finding.semantic(
                        "shape", rule,
                        f"package {package.name!r} phase {phase}: {detail}",
                        f"{spec.method}/{scheme.name}", world,
                        f"<shape:{model_name}>"))
    return out


@pytest.mark.parametrize("model_name", ["vgg16", "resnet50"])
@pytest.mark.parametrize("tamper", ["gappy", "overclaiming"])
def test_shared_verdicts_render_per_package_findings(model_name, tamper):
    if tamper == "gappy":
        spec, schemes = CompressionSpec("qsgd"), {
            "gap": SchemeModel("gap", gappy)}
    else:
        spec, schemes = OverclaimingSpec("qsgd", bits=4), SCHEME_MODELS
    findings = interpret_pipeline(model_name, CGXConfig(compression=spec),
                                  schemes=schemes, worlds=(4, 5))
    expected = per_package_reference(model_name, spec, schemes, (4, 5))
    assert findings  # the tamper is caught
    assert [(f.rule, f.message, f.scheme, f.world, f.path)
            for f in findings] == [(f.rule, f.message, f.scheme, f.world,
                                    f.path) for f in expected]


def test_default_battery_checks_each_chunk_fact_once(monkeypatch):
    from repro.analysis import shapes

    calls = []
    check = shapes._check_chunks

    def counting(*fact):
        calls.append(fact)
        return check(*fact)

    monkeypatch.setattr(shapes, "_check_chunks", counting)
    assert verify_shapes() == []
    assert len(calls) == len(set(calls)) == 4056
