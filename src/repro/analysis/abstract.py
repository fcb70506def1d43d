"""Abstract execution of compression operators and engine wiring.

The contract checker (:mod:`repro.analysis.contracts`) never inspects
compressor source code; it *runs* each registered operator on symbolic
probe tensors — deterministic seeded arrays whose values are irrelevant
to the checked properties — and compares the observed behaviour with
the operator's declared :class:`~repro.compression.CompressorContract`.
This module is the execution layer: it produces plain observation
records, and the rules in ``contracts.py`` turn them into findings.

Three kinds of replay:

* **roundtrip probes** — compress/decompress over a shape battery that
  covers bucket-boundary padding, ``wire_dtype_bits`` widening, the
  PowerSGD rank clamp, and 1-D fallbacks; records output shape/dtype
  and the three byte counts that must agree (``spec.wire_bytes``,
  ``Compressed.nbytes``, the serialized payload size).
* **behaviour probes** — repeated compression under identical inputs
  and identically-seeded generators (statefulness), and under different
  generator seeds on fresh instances (rng sensitivity).
* **engine replays** — :meth:`CommunicationEngine.plan` +
  ``_compressor_for`` wiring over a synthetic model, and the adaptive
  respec-while-training sequence that must carry error-feedback
  residuals across same-method spec changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compression import METHODS, CompressionSpec, Compressor, ErrorFeedback
from repro.core import CGXConfig, CommunicationEngine, Package
from repro.core.filters import LayerInfo
from repro.core.serialization import measured_wire_bytes, serialize_payload

__all__ = [
    "PROBE_SHAPES",
    "RoundtripObservation",
    "BehaviorObservation",
    "default_registry",
    "probe_specs",
    "execute_roundtrips",
    "execute_behavior",
    "replay_engine_wiring",
    "replay_adaptive_respec",
    "SYNTHETIC_LAYERS",
]

#: shape battery: odd 1-D sizes (bucket tail padding), exact bucket
#: multiples, 2-D matrices (PowerSGD), tiny tensors (k/rank clamping),
#: and a (1, n) row that must take the 1-D dense fallback
PROBE_SHAPES: tuple[tuple[int, ...], ...] = (
    (97,), (128,), (4, 33), (16, 16), (2, 3), (1, 5), (64, 32),
)


def default_registry() -> dict[str, type[Compressor]]:
    """A copy of the one method -> operator class table."""
    return dict(METHODS)


def probe_specs(method: str) -> list[CompressionSpec]:
    """Representative specs per method, including the corner cases.

    qsgd gets the l2-scaling variant and the GRACE ``wire_dtype_bits=8``
    wire format (4-bit codes travelling one byte each); powersgd gets a
    rank far above any probe matrix dimension so the clamp is exercised.
    A method with no row (none, fp16, one just registered) is probed at
    its default parameters, so registering an operator certifies it.
    """
    table: dict[str, list[CompressionSpec]] = {
        "qsgd": [
            CompressionSpec("qsgd", bits=4, bucket_size=32),
            CompressionSpec("qsgd", bits=3, bucket_size=7, scaling="l2"),
            CompressionSpec("qsgd", bits=4, bucket_size=16,
                            wire_dtype_bits=8),
        ],
        "nuq": [CompressionSpec("nuq", bits=4, bucket_size=32)],
        "topk": [CompressionSpec("topk", density=0.1)],
        "powersgd": [
            CompressionSpec("powersgd", rank=4),
            CompressionSpec("powersgd", rank=100),
        ],
        "fake": [CompressionSpec("fake", ratio=8.0)],
        "onebit": [CompressionSpec("onebit", bucket_size=32)],
        "dgc": [CompressionSpec("dgc", density=0.05)],
    }
    return table.get(method) or [CompressionSpec(method)]


@dataclass(frozen=True)
class RoundtripObservation:
    """What one compress/decompress probe actually did."""

    spec: CompressionSpec
    shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    out_numel: int
    out_dtype: str
    claimed_bytes: int    # spec.wire_bytes(numel, shape)
    declared_bytes: int   # Compressed.nbytes
    measured_bytes: int   # len(serialize_payload(...))
    exact: bool           # roundtrip was bit-identical


@dataclass(frozen=True)
class BehaviorObservation:
    """State/rng behaviour of one operator under controlled probes."""

    spec: CompressionSpec
    repeat_differs: bool  # same instance, same input, same-seed rng
    rng_sensitive: bool   # fresh instances, different rng seeds


def _probe_array(shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape).astype(np.float32)


def execute_roundtrips(cls: type[Compressor], spec: CompressionSpec
                       ) -> list[RoundtripObservation]:
    """Run the shape battery through one operator class."""
    observations = []
    for shape in PROBE_SHAPES:
        compressor = cls(spec)
        array = _probe_array(shape)
        compressed = compressor.compress(array, np.random.default_rng(0),
                                         key="probe")
        restored = compressor.decompress(compressed)
        observations.append(RoundtripObservation(
            spec=spec,
            shape=shape,
            out_shape=tuple(np.shape(restored)),
            out_numel=int(np.size(restored)),
            out_dtype=str(np.asarray(restored).dtype),
            claimed_bytes=spec.wire_bytes(array.size, shape),
            declared_bytes=compressed.nbytes,
            measured_bytes=measured_wire_bytes(compressed),
            exact=bool(np.array_equal(np.asarray(restored), array)),
        ))
    return observations


def execute_behavior(cls: type[Compressor], spec: CompressionSpec
                     ) -> BehaviorObservation:
    """Probe statefulness and rng sensitivity of one operator class.

    Statefulness: one instance compresses the same tensor twice, each
    call fed a *fresh* generator with the same seed — any payload
    difference can only come from per-key state.  RNG sensitivity: two
    fresh instances compress the same tensor under different seeds — a
    payload difference means the operator draws from the generator.
    """
    array = _probe_array((64, 32))

    instance = cls(spec)
    first = serialize_payload(
        instance.compress(array, np.random.default_rng(0), key="probe"))
    second = serialize_payload(
        instance.compress(array, np.random.default_rng(0), key="probe"))

    seed_a = serialize_payload(
        cls(spec).compress(array, np.random.default_rng(0), key="probe"))
    seed_b = serialize_payload(
        cls(spec).compress(array, np.random.default_rng(1), key="probe"))

    return BehaviorObservation(
        spec=spec,
        repeat_differs=first != second,
        rng_sensitive=seed_a != seed_b,
    )


#: synthetic model for engine replays: a compressed weight, a filtered
#: bias, a norm layer, and a tensor under the min_compress_numel floor
SYNTHETIC_LAYERS = (
    LayerInfo("fc.weight", 64 * 48, (64, 48)),
    LayerInfo("fc.bias", 64, (64,)),
    LayerInfo("ln.weight", 48, (48,)),
    LayerInfo("head.weight", 100, (10, 10)),
)


def replay_engine_wiring(
    config: CGXConfig,
    engine_cls: type[CommunicationEngine] = CommunicationEngine,
) -> list[tuple[Package, Compressor]]:
    """Plan packages for the synthetic model and build each compressor.

    Returns ``(package, compressor)`` pairs — exactly what the engine
    would use on the first step under ``config`` — so the contract rules
    can check the wiring (e.g. an EF-requiring method deployed without
    :class:`ErrorFeedback`) without running a reduction.
    """
    engine = engine_cls(config)
    packages = engine.plan(list(SYNTHETIC_LAYERS))
    return [(package, engine._compressor_for(package)) for package in packages]


def replay_adaptive_respec(
    engine_cls: type[CommunicationEngine] = CommunicationEngine,
) -> dict:
    """Replay the adaptive respec-while-training sequence.

    Step 1 reduces with an error-feedback sparsifier, leaving a nonzero
    residual in the compressor cache.  Then — as
    :meth:`AdaptiveController.reassign` does — the layer's spec changes
    *parameters only* (same method) via ``per_layer``, and step 2
    reduces again.  Returns what happened to the cached compressor:

    * ``residual_norm_before`` — residual magnitude after step 1;
    * ``residual_norm_after`` — magnitude under the new spec *before*
      step 2's compression folds it in (captured by inspecting the
      rebuilt compressor's residual store);
    * ``carried`` — the new compressor kept the old residual state.
    """
    spec = CompressionSpec("topk", density=0.1, error_feedback=True)
    config = CGXConfig(compression=spec)
    engine = engine_cls(config)
    rng = np.random.default_rng(0)
    world = 2
    grads = [
        {"fc.weight": rng.standard_normal((64, 48)).astype(np.float32)}
        for _ in range(world)
    ]
    engine.reduce(grads, rng)
    before = engine._compressors.get("fc.weight")
    norm_before = (before.total_residual_norm()
                   if isinstance(before, ErrorFeedback) else 0.0)

    # the adaptive controller writes a same-method override with new
    # parameters (cf. AdaptiveController.reassign / spec.with_bits)
    config.per_layer["fc.weight"] = replace(spec, density=0.3)
    package_after = [
        p for p in engine.plan(list(SYNTHETIC_LAYERS))
        if p.name == "fc.weight"
    ][0]
    after = engine._compressor_for(package_after)
    norm_after = (after.total_residual_norm()
                  if isinstance(after, ErrorFeedback) else 0.0)
    return {
        "rebuilt": after is not before,
        "carried": norm_after > 0 and abs(norm_after - norm_before) < 1e-6,
        "residual_norm_before": norm_before,
        "residual_norm_after": norm_after,
    }
