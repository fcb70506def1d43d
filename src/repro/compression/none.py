"""Identity and FP16 "compressors" — the uncompressed baselines."""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from .base import Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract

__all__ = ["IdentityCompressor", "FP16Compressor"]


class DenseCast(Compressor):
    """The dense frame (not itself a method): every element, cast to ``dtype``."""

    dtype: ClassVar[np.dtype] = np.dtype(np.float32)
    fields = ("values",)

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        return numel * cls.dtype.itemsize

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        return Compressed(self.spec, flat.size, tuple(np.shape(array)),
                          {"values": flat.astype(self.dtype)},
                          self.spec.wire_bytes(flat.size))

    def decompress(self, compressed: Compressed) -> np.ndarray:
        return compressed.payload["values"].astype(np.float32).reshape(
            compressed.shape)


@register
class IdentityCompressor(DenseCast):
    """Transmits full-precision fp32 values unchanged."""

    contract = CompressorContract("none", lossless=True)


@register
class FP16Compressor(DenseCast):
    """Half-precision cast: 2x size reduction, deterministic rounding."""

    contract = CompressorContract("fp16")
    dtype = np.dtype(np.float16)
