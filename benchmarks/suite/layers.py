"""Layer matrix: one number per layer on a fixed small input.

Run once before a traced run, outside the timed region.  Each timing is
the median of five calls (three for the multi-megabyte collectives).
Throughputs are in MB of fp32 gradient handled per second, so encode,
decode, pack and unpack rows are comparable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import inputs

__all__ = ["reduce_matrix", "build_spec_matrix"]


def _median_seconds(fn, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def reduce_matrix(seed: int, scale: float) -> dict[str, float]:
    """Compression, data-path collectives, serialization and the adaptive
    solvers — the layers under ``reduce_qsgd``."""
    from repro.collectives import ALGORITHMS, allreduce
    from repro.compression import (CompressionSpec, make_compressor,
                                   pack_codes, unpack_codes)
    from repro.core import ASSIGNERS, serialize_payload, synthetic_stats_for_spec
    from repro.models import build_spec

    side = max(64, int(1024 * scale))
    rng = np.random.default_rng([seed, 303])
    tensor = rng.standard_normal((side, side), dtype=np.float32)
    dense_mb = tensor.nbytes / 1e6
    out: dict[str, float] = {}

    specs = {
        "qsgd4": CompressionSpec("qsgd", bits=4, bucket_size=128),
        "qsgd8": CompressionSpec("qsgd", bits=8, bucket_size=128),
        "nuq4": CompressionSpec("nuq", bits=4, bucket_size=128),
        "topk": CompressionSpec("topk", density=0.01),
        "powersgd": CompressionSpec("powersgd", rank=4),
    }
    for name, spec in specs.items():
        operator = make_compressor(spec)
        wire = operator.compress(tensor, np.random.default_rng(1), key=name)
        encode = _median_seconds(lambda: operator.compress(
            tensor, np.random.default_rng(1), key=name))
        decode = _median_seconds(lambda: operator.decompress(wire))
        out[f"compression.{name}.encode_mb_per_s"] = dense_mb / encode
        out[f"compression.{name}.decode_mb_per_s"] = dense_mb / decode

    codes = rng.integers(0, 16, size=tensor.size).astype(np.uint8)
    packed = pack_codes(codes, 4)
    out["compression.pack_codes4.mb_per_s"] = \
        dense_mb / _median_seconds(lambda: pack_codes(codes, 4))
    out["compression.unpack_codes4.mb_per_s"] = \
        dense_mb / _median_seconds(lambda: unpack_codes(packed, 4, codes.size))

    qsgd4 = make_compressor(specs["qsgd4"])
    small = tensor.ravel()[:2048]
    trips = max(20, int(400 * scale))

    def roundtrips() -> None:
        for _ in range(trips):
            qsgd4.decompress(qsgd4.compress(small, rng, key="small"))

    out["compression.qsgd4.small_roundtrips_per_s"] = \
        trips / _median_seconds(roundtrips, repeats=3)

    # data-path collectives: world 4, four 4 MiB buffers, no compression
    numel = max(4096, int((1 << 20) * scale))
    buffers = [rng.standard_normal(numel, dtype=np.float32)
               for _ in range(inputs.WORLD)]
    identity = make_compressor(CompressionSpec("none"))
    moved_mb = inputs.WORLD * numel * 4 / 1e6
    for scheme in ALGORITHMS:
        seconds = _median_seconds(
            lambda: allreduce(scheme, [b.copy() for b in buffers], identity,
                              rng, key=scheme, node_of=[0, 0, 1, 1]),
            repeats=3)
        out[f"collectives.{scheme}.fp32_mb_per_s"] = moved_mb / seconds

    wire = qsgd4.compress(tensor, np.random.default_rng(1), key="wire")
    out["core.serialization.serialize_mb_per_s"] = \
        dense_mb / _median_seconds(lambda: serialize_payload(wire))

    stats = synthetic_stats_for_spec(build_spec("transformer_xl"))
    for name, solver in ASSIGNERS.items():
        out[f"core.adaptive.{name}_ms"] = \
            1e3 * _median_seconds(lambda: solver(stats, alpha=2.0), repeats=3)
    return out


def build_spec_matrix(models) -> dict[str, float]:
    """``build_spec`` runs in set-up only, so it is timed here."""
    from repro.models import build_spec

    samples = []
    for model in models:
        for _ in range(5):
            start = time.perf_counter()
            build_spec(model)
            samples.append(time.perf_counter() - start)
    return {"models.build_spec_ms_p50": 1e3 * statistics.median(samples)}
