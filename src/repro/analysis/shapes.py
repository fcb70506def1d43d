"""Shape/dtype pipeline interpreter: abstract execution of the wire path.

A gradient travels layer-filter → package plan → ravel → compressor
encode → :func:`~repro.core.serialization.serialize_payload` →
reduction-scheme chunking before any byte moves.  This pass propagates
*abstract* tensors — (shape, dtype, byte-layout), no data — through
that pipeline for every (model spec × compressor × reduction scheme)
triple at full model scale, where padding, bucket metadata and chunk
boundaries actually bite; the symbolic model is grounded by a
calibration sweep against real serialized payloads.  Long form:
``docs/analysis.md`` pillar 6.  The rules:

"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.compression import CompressionSpec, Compressor
from repro.core import CGXConfig, CommunicationEngine
from repro.models import ModelSpec, available_specs, build_spec

from .abstract import default_registry, execute_roundtrips, probe_specs
from .findings import CellFindings, Finding, rule_table

__all__ = [
    "SHAPE_RULES",
    "WireSegment",
    "SchemeModel",
    "SCHEME_MODELS",
    "symbolic_payload",
    "symbolic_wire_bytes",
    "battery_specs",
    "calibrate_payload_model",
    "interpret_pipeline",
    "verify_shapes",
]

SHAPE_RULES = {
    "SHP001": "package plan drops, duplicates or miscounts tensors",
    "SHP002": "decode/accumulator dtype breaks the fp32 accumulate path",
    "SHP003": "symbolic serialized size disagrees with wire_bytes claim",
    "SHP004": "scheme chunk partition is unsound or inflates metadata",
    "SHP005": "package accounting disagrees with the raveled data path",
}
__doc__ = rule_table(__doc__, SHAPE_RULES)



@dataclass(frozen=True)
class WireSegment:
    """One field of a serialized payload: name, bytes, element dtype."""

    name: str
    nbytes: int
    dtype: str


def symbolic_wire_bytes(segments: Sequence[WireSegment]) -> int:
    return sum(segment.nbytes for segment in segments)


def symbolic_payload(spec: CompressionSpec, numel: int,
                     shape: tuple[int, ...] | None = None,
                     ) -> tuple[WireSegment, ...]:
    """Abstract serialized layout of one compressed tensor.

    Mirrors :func:`~repro.core.serialization.serialize_payload` field by
    field — independently of :meth:`CompressionSpec.wire_bytes`, which
    is exactly what lets SHP003 compare the two.  The model is grounded
    against real payloads by :func:`calibrate_payload_model`.
    """
    if numel == 0:
        return ()
    method = spec.method
    if method == "none":
        return (WireSegment("values", numel * 4, "float32"),)
    if method == "fp16":
        return (WireSegment("values", numel * 2, "float16"),)
    if method in ("qsgd", "nuq"):
        code_bits = spec.wire_dtype_bits or spec.bits
        if code_bits <= 8:
            codes = WireSegment("codes", -(-numel * code_bits // 8),
                                f"packed{code_bits}")
        else:
            codes = WireSegment("codes", numel * (code_bits // 8),
                                f"uint{code_bits}")
        buckets = -(-numel // spec.bucket_size)
        return (codes, WireSegment("norms", buckets * 4, "float32"))
    if method in ("topk", "dgc"):
        k = max(1, int(numel * spec.density))
        return (WireSegment("indices", k * 4, "int32"),
                WireSegment("values", k * 4, "float32"))
    if method == "onebit":
        buckets = -(-numel // spec.bucket_size)
        return (WireSegment("signs", -(-numel // 8), "packed1"),
                WireSegment("pos_mean", buckets * 4, "float32"),
                WireSegment("neg_mean", buckets * 4, "float32"))
    if method == "powersgd":
        if shape is None or len(shape) < 2:
            rows, cols = 1, numel
        else:
            rows, cols = shape[0], numel // shape[0]
        if rows == 1 or cols == 1:
            return (WireSegment("dense", numel * 4, "float32"),)
        rank = min(spec.rank, rows, cols)
        return (WireSegment("p", rows * rank * 4, "float32"),
                WireSegment("q", cols * rank * 4, "float32"))
    if method == "fake":
        return (WireSegment("head", max(1, int(numel / spec.ratio)) * 4,
                            "float32"),)
    raise ValueError(f"no symbolic layout for method {method!r}")


Bounds = "list[tuple[int, int]]"
PartitionFn = Callable[[int, int, "list[int] | None"],
                       "list[tuple[str, list[tuple[int, int]]]]"]


def _chunk_bounds(numel: int, n_chunks: int) -> "list[tuple[int, int]]":
    # local mirror of collectives.base.chunk_bounds: the interpreter
    # must predict the partition, not ask the implementation for it
    base, extra = divmod(numel, n_chunks)
    bounds = []
    start = 0
    for chunk in range(n_chunks):
        size = base + (1 if chunk < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _whole(numel: int) -> "list[tuple[int, int]]":
    return [(0, numel)]


def _sra_phases(numel: int, world: int,
                node_of: "list[int] | None") -> list:
    scatter = _chunk_bounds(numel, world)
    return [("reduce-scatter", scatter), ("allgather", scatter)]


def _ring_phases(numel: int, world: int,
                 node_of: "list[int] | None") -> list:
    return [("ring", _chunk_bounds(numel, world))]


def _tree_phases(numel: int, world: int,
                 node_of: "list[int] | None") -> list:
    return [("tree", _whole(numel))]


def _allgather_phases(numel: int, world: int,
                      node_of: "list[int] | None") -> list:
    return [("gather", _whole(numel))]


def _ps_phases(numel: int, world: int,
               node_of: "list[int] | None") -> list:
    return [("push", _whole(numel)), ("pull", _whole(numel))]


def _hier_phases(numel: int, world: int,
                 node_of: "list[int] | None") -> list:
    if node_of is None:
        node_of = [0] * world
    nodes = sorted(set(node_of))
    if len(nodes) == 1:
        return _sra_phases(numel, world, None)
    phases = []
    for node in nodes:
        local = sum(1 for n in node_of if n == node)
        phases.extend(
            (f"intra-node{node}-{name}", bounds)
            for name, bounds in _sra_phases(numel, local, None))
    phases.extend((f"inter-{name}", bounds)
                  for name, bounds in _sra_phases(numel, len(nodes), None))
    phases.append(("broadcast", _whole(numel)))
    return phases


@dataclass(frozen=True)
class SchemeModel:
    """Abstract chunking/accumulation behaviour of one reduction scheme."""

    name: str
    phases: PartitionFn
    #: dtype of the buffer decoded chunks are summed into; every real
    #: scheme accumulates in fp32 (``total = chunk.astype(np.float32)``)
    accumulator_dtype: str = "float32"


SCHEME_MODELS: dict[str, SchemeModel] = {
    "sra": SchemeModel("sra", _sra_phases),
    "ring": SchemeModel("ring", _ring_phases),
    "tree": SchemeModel("tree", _tree_phases),
    "allgather": SchemeModel("allgather", _allgather_phases),
    "ps": SchemeModel("ps", _ps_phases),
    "hier": SchemeModel("hier", _hier_phases),
}


def battery_specs() -> list[CompressionSpec]:
    """One canonical spec per method, plus wire-format variants."""
    return [
        CompressionSpec("none"),
        CompressionSpec("fp16"),
        CompressionSpec("qsgd", bits=4, bucket_size=128),
        CompressionSpec("qsgd", bits=2, bucket_size=64),
        CompressionSpec("qsgd", bits=4, bucket_size=128, wire_dtype_bits=8),
        CompressionSpec("nuq", bits=4, bucket_size=128),
        CompressionSpec("topk", density=0.01, error_feedback=True),
        CompressionSpec("dgc", density=0.01),
        CompressionSpec("onebit", bucket_size=512, error_feedback=True),
        CompressionSpec("powersgd", rank=4, error_feedback=True),
        CompressionSpec("fake", ratio=10.0),
    ]


def calibrate_payload_model(
    registry: "dict[str, type[Compressor]] | None" = None,
) -> list[Finding]:
    """Ground the symbolic layout against real serialized payloads.

    Grades the contract checker's roundtrip probes
    (:func:`~repro.analysis.abstract.execute_roundtrips` over every
    registered method's probe specs) against the symbolic model: the
    measured serialized length and the decompressed dtype.  A mismatch
    here means the *model* is wrong — every SHP003/SHP005 verdict at
    full model scale would be built on sand.
    """
    registry = registry or default_registry()
    out = CellFindings("shape", SHAPE_RULES, path="<shape:calibration>")
    for method in sorted(registry):
        for spec in probe_specs(method):
            for obs in execute_roundtrips(registry[method], spec):
                symbolic = symbolic_wire_bytes(
                    symbolic_payload(spec, math.prod(obs.shape), obs.shape))
                if symbolic != obs.measured_bytes:
                    out.emit("SHP003",
                             f"symbolic model predicts {symbolic}B for "
                             f"{method} on shape {obs.shape}, real payload "
                             f"serializes to {obs.measured_bytes}B", method)
                if obs.out_dtype != "float32":
                    out.emit("SHP002",
                             f"{method} decompress returned {obs.out_dtype} "
                             f"on shape {obs.shape}; the accumulate path is "
                             f"fp32", method)
    return out


def _check_plan(model_name: str, model: ModelSpec, packages: list,
                method: str, registry: "dict[str, type[Compressor]]",
                ) -> list[Finding]:
    """SHP001/SHP002/SHP005: per-plan checks, scheme-independent."""
    out = CellFindings("shape", SHAPE_RULES, method, 0,
                       f"<shape:{model_name}>")
    expected = {t.name: t for t in model.tensors}
    seen: list[str] = []
    for package in packages:
        for layer in package.layers:
            seen.append(layer.name)
        if package.numel != sum(l.numel for l in package.layers):
            out.emit("SHP001",
                     f"package {package.name!r} claims {package.numel} "
                     f"elements but its layers sum differently")
    dropped = sorted(set(expected) - set(seen))
    if dropped:
        out.emit("SHP001",
                 f"plan drops {len(dropped)} tensor(s): {dropped[:5]}")
    duplicated = sorted(name for name, count in Counter(seen).items()
                        if count > 1)
    if duplicated:
        out.emit("SHP001", f"plan reduces tensor(s) twice: {duplicated[:5]}")
    for layer_name in seen:
        tensor = expected.get(layer_name)
        if tensor is None:
            out.emit("SHP001", f"plan invents tensor {layer_name!r}")

    for package in packages:
        cls = registry.get(package.spec.method)
        contract = getattr(cls, "contract", None) if cls else None
        if contract is None:
            out.emit("SHP001",
                     f"package {package.name!r} uses method "
                     f"{package.spec.method!r} with no registered contract")
            continue
        if not contract.preserves_shape:
            out.emit("SHP001",
                     f"package {package.name!r}: method "
                     f"{package.spec.method!r} does not preserve shape; the "
                     f"scatter step slices the flat buffer back into layers")
        if contract.output_dtype != "float32":
            out.emit("SHP002",
                     f"package {package.name!r}: {package.spec.method!r} "
                     f"decodes to {contract.output_dtype}, narrowing the "
                     f"fp32 accumulate path")
        # the engine ravels every buffer before compressing (see
        # _gather_package), so the accounting must match the 1-D view
        claimed = package.wire_bytes()
        symbolic = symbolic_wire_bytes(
            symbolic_payload(package.spec, package.numel,
                             (package.numel,)))
        if claimed != symbolic:
            out.emit("SHP005",
                     f"package {package.name!r} ({package.numel} elements) "
                     f"reports {claimed}B but the raveled buffer serializes "
                     f"to {symbolic}B symbolically")
    return out


#: one chunk verdict: ``(rule, phase, detail)`` per violation, rendered
#: per package as ``package <name> phase <phase>: <detail>``
ChunkVerdict = tuple[tuple[str, str, str], ...]


def _check_chunks(spec: CompressionSpec, numel: int, scheme: SchemeModel,
                  world: int, node_of: "tuple[int, ...] | None"
                  ) -> ChunkVerdict:
    """SHP003/SHP004: per-scheme chunk checks for one package.

    The verdict depends on exactly these arguments — never on the
    package's name or the model it comes from — so it is decided once
    per distinct fact and rendered per package by the caller.
    """
    out: list[tuple[str, str, str]] = []
    whole_bytes = spec.wire_bytes(numel)
    # the fact keys the node map as a tuple; a partition takes a list
    nodes = list(node_of) if node_of is not None else None
    for phase, bounds in scheme.phases(numel, world, nodes):
        cursor = 0
        sound = True
        if len(bounds) > world:
            extra = sum(
                symbolic_wire_bytes(
                    symbolic_payload(spec, end - start, (end - start,)))
                for start, end in bounds) - whole_bytes
            out.append(("SHP004", phase,
                        f"partitions into {len(bounds)} chunks for "
                        f"{world} ranks; per-chunk metadata inflates the wire "
                        f"by {max(extra, 0)}B over the whole-buffer "
                        f"{whole_bytes}B"))
            continue
        for start, end in bounds:
            if start != cursor or end < start:
                out.append(("SHP004", phase,
                            f"chunk [{start}, {end}) breaks contiguous "
                            f"coverage at offset {cursor}"))
                sound = False
                break
            if end == start and numel >= len(bounds):
                out.append(("SHP004", phase,
                            f"empty chunk at offset {start} despite "
                            f"{numel} elements across {len(bounds)} chunks"))
                sound = False
            cursor = end
        if sound and cursor != numel:
            out.append(("SHP004", phase,
                        f"chunks cover {cursor} of {numel} elements"))
            sound = False
        if not sound:
            continue
        for start, end in bounds:
            chunk_numel = end - start
            claimed = spec.wire_bytes(chunk_numel)
            symbolic = symbolic_wire_bytes(
                symbolic_payload(spec, chunk_numel, (chunk_numel,)))
            if claimed != symbolic:
                out.append(("SHP003", phase,
                            f"chunk [{start}, {end}) claims {claimed}B "
                            f"on the wire but serializes to {symbolic}B"))
    return tuple(out)


def interpret_pipeline(
    model_name: str,
    config: CGXConfig,
    schemes: "Mapping[str, SchemeModel] | None" = None,
    worlds: Sequence[int] = (4, 5),
    registry: "dict[str, type[Compressor]] | None" = None,
    model: ModelSpec | None = None,
    verdicts: "dict[tuple, ChunkVerdict] | None" = None,
) -> list[Finding]:
    """Abstractly execute one model through one config, all schemes.

    ``verdicts`` maps each chunk fact — ``_check_chunks``'s arguments —
    to its verdict; :func:`verify_shapes` shares one map across its
    battery, so each distinct fact is checked once, and a non-clean
    verdict is still reported once per package.
    """
    registry = registry or default_registry()
    schemes = schemes if schemes is not None else SCHEME_MODELS
    model = model or build_spec(model_name)
    verdicts = {} if verdicts is None else verdicts
    method = config.compression.method
    engine = CommunicationEngine(config)
    packages = engine.plan(model.layer_infos())
    out = _check_plan(model_name, model, packages, method, registry)

    for scheme in schemes.values():
        for world in worlds:
            node_of = tuple(rank // 2 for rank in range(world)) \
                if scheme.name == "hier" else None
            cell = CellFindings("shape", SHAPE_RULES,
                                f"{method}/{scheme.name}", world,
                                f"<shape:{model_name}>")
            if scheme.accumulator_dtype != "float32":
                cell.emit("SHP002",
                          f"scheme accumulates decoded chunks into "
                          f"{scheme.accumulator_dtype}; gradients are fp32")
            for package in packages:
                fact = (package.spec, package.numel, scheme, world, node_of)
                verdict = verdicts.get(fact)
                if verdict is None:
                    verdict = verdicts[fact] = _check_chunks(*fact)
                for rule, phase, detail in verdict:
                    cell.emit(rule, f"package {package.name!r} phase "
                                    f"{phase}: {detail}")
            out.extend(cell)
    return out


def _adaptive_config(base: CompressionSpec) -> CGXConfig:
    """A config carrying a real adaptive plan in ``per_layer``.

    Ties the two certifiers together: the bit-width plans BWP certifies
    must also be *executable* — every per-layer spec the controller
    would write has to flow through the shape interpreter cleanly.
    """
    from repro.core.adaptive import (kmeans_assign, resolve_bucket,
                                     synthetic_stats_for_spec)

    spec = build_spec("transformer_xl")
    stats = synthetic_stats_for_spec(spec)
    bits = kmeans_assign(stats, alpha=2.0)
    per_layer = {name: base.with_bits(width, resolve_bucket(width))
                 for name, width in bits.items()}
    return CGXConfig(compression=base, per_layer=per_layer)


def verify_shapes() -> list[Finding]:
    """Run the full SHP battery.

    Sweeps every model spec × every battery compressor × every scheme
    model at full tensor scale, plus the calibration pass and one
    adaptively-respecced config; tests hand broken specs, registries
    and scheme models to :func:`interpret_pipeline` and
    :func:`calibrate_payload_model`.
    """
    registry = default_registry()
    findings = list(calibrate_payload_model(registry))
    battery = battery_specs()
    verdicts: dict[tuple, ChunkVerdict] = {}
    for name in available_specs():
        model = build_spec(name)
        for spec in battery:
            config = CGXConfig(compression=spec)
            findings.extend(interpret_pipeline(
                name, config, registry=registry, model=model,
                verdicts=verdicts))
    findings.extend(interpret_pipeline(
        "transformer_xl:adaptive",
        _adaptive_config(CompressionSpec("qsgd", bits=4, bucket_size=128)),
        registry=registry, model=build_spec("transformer_xl"),
        verdicts=verdicts))
    return findings
