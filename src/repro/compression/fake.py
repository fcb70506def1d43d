"""Fake (truncation) compression for the motivating experiment.

Section 2.1: "assuming a buffer of size N ... and a target compression
ratio γ ≥ 1, we only transmit the first k = N/γ elements."  This isolates
the *bandwidth* effect of compression from its accuracy effect, which is
how Figure 1 demonstrates that bandwidth is the commodity-box bottleneck.
The untransmitted tail decompresses to zeros; Figure 1 runs are timing
experiments, never accuracy experiments.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import FP32_BYTES, Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract

__all__ = ["FakeCompressor"]


@register
class FakeCompressor(Compressor):
    """Transmit only the first ``numel / ratio`` elements."""

    contract = CompressorContract("fake")
    fields = ("head",)

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        if spec.ratio < 1:
            raise ValueError(f"fake ratio must be >= 1, got {spec.ratio}")

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        return max(1, int(numel / spec.ratio)) * FP32_BYTES

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        k = max(1, int(flat.size / self.spec.ratio))
        return Compressed(self.spec, flat.size, tuple(np.shape(array)),
                          {"head": flat[:k].copy()},
                          self.spec.wire_bytes(flat.size))

    def decompress(self, compressed: Compressed) -> np.ndarray:
        out = np.zeros(compressed.numel, dtype=np.float32)
        head = compressed.payload["head"]
        out[: head.size] = head
        return out.reshape(compressed.shape)
