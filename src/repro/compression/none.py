"""Identity and FP16 "compressors" — the uncompressed baselines."""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

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
        return self._compress_run([array], rng)[0]

    def decompress(self, compressed: Compressed) -> np.ndarray:
        # per chunk: slicing a batched cast back apart costs what the
        # small casts it would replace do
        return compressed.payload["values"].astype(np.float32).reshape(
            compressed.shape)

    def _compress_run(self, arrays: Sequence[np.ndarray],
                      rng: np.random.Generator) -> list[Compressed]:
        """One cast for the whole run; each payload is a view of it."""
        dense = [np.asarray(a, dtype=np.float32) for a in arrays]
        cast = np.concatenate([d.ravel() for d in dense], dtype=self.dtype)
        wire = {n: self.spec.wire_bytes(n) for n in {d.size for d in dense}}
        out: list[Compressed] = []
        start = 0
        for d in dense:
            stop = start + d.size
            out.append(Compressed(self.spec, d.size, d.shape,
                                  {"values": cast[start:stop]}, wire[d.size]))
            start = stop
        return out


@register
class IdentityCompressor(DenseCast):
    """Transmits full-precision fp32 values unchanged."""

    contract = CompressorContract("none", lossless=True)


@register
class FP16Compressor(DenseCast):
    """Half-precision cast: 2x size reduction, deterministic rounding."""

    contract = CompressorContract("fp16")
    dtype = np.dtype(np.float16)
