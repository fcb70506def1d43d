"""Compression error and size measurement utilities.

These drive the adaptive compression objective (Section 5): per-layer
compression errors are compared against the 4-bit reference error E4,
and compressed sizes feed the bandwidth objective sum(b_l * size(L_l)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import CompressionSpec, make_compressor

__all__ = ["LayerErrorStats", "measure_error", "relative_error",
           "model_wire_bytes", "kernel_seconds"]

#: effective GPU memory bandwidth for compression kernels (bytes/s);
#: quantization is memory-bound (one vectorized read of fp32 + packed
#: write), so kernel time ~ bytes / this rate.  ~75% of an RTX 3090's
#: 936 GB/s HBM bandwidth.
COMPRESSION_THROUGHPUT = 700e9
#: fixed CUDA kernel launch + stream sync cost per compression call.
KERNEL_LAUNCH_OVERHEAD = 8e-6
#: arithmetic rate for a kernel's extra compute (PowerSGD's matmuls)
KERNEL_FLOP_RATE = 20e12


@dataclass(frozen=True)
class LayerErrorStats:
    """Compression error measurements for one layer."""

    name: str
    numel: int
    grad_norm: float
    error_norm: float
    wire_bytes: int

    @property
    def relative(self) -> float:
        if self.grad_norm == 0:
            return 0.0
        return self.error_norm / self.grad_norm


def measure_error(spec: CompressionSpec, array: np.ndarray,
                  rng: np.random.Generator, name: str = "") -> LayerErrorStats:
    """Compress-decompress ``array`` and record error and wire size."""
    compressor = make_compressor(spec)
    restored = compressor.roundtrip(array, rng, key=name or None)
    error = float(np.linalg.norm(
        np.ravel(array).astype(np.float64) - np.ravel(restored)
    ))
    return LayerErrorStats(
        name=name,
        numel=int(np.size(array)),
        grad_norm=float(np.linalg.norm(np.ravel(array))),
        error_norm=error,
        wire_bytes=spec.wire_bytes(int(np.size(array)), tuple(np.shape(array))),
    )


def relative_error(spec: CompressionSpec, array: np.ndarray,
                   rng: np.random.Generator) -> float:
    """Normalized compression error ||x - C(x)|| / ||x||."""
    return measure_error(spec, array, rng).relative


def model_wire_bytes(specs: dict[str, CompressionSpec],
                     sizes: dict[str, int]) -> int:
    """Total transmitted bytes for a model under per-layer specs."""
    total = 0
    for name, numel in sizes.items():
        spec = specs.get(name, CompressionSpec("none"))
        total += spec.wire_bytes(numel)
    return total


def kernel_seconds(nbytes_in: int, extra_flops: float = 0.0) -> float:
    """Simulated GPU time of one compression/decompression kernel.

    Memory-bound byte traffic plus any extra compute (PowerSGD matmuls)
    plus a launch overhead.  The launch overhead is what makes CGX's
    small-layer filtering profitable (Section 4, "Improved Scheduling").
    """
    return (KERNEL_LAUNCH_OVERHEAD
            + nbytes_in / COMPRESSION_THROUGHPUT
            + extra_flops / KERNEL_FLOP_RATE)
