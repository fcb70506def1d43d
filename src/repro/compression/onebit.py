"""1-bit SGD (Seide et al., 2014): sign quantization with error feedback.

The first gradient-compression method the paper cites.  Each bucket
transmits one bit per value plus two fp32 reconstruction magnitudes —
the mean of the positive values and the mean of the negative values —
which makes the reconstruction the least-squares optimal 2-level
quantizer for the given sign pattern.  Convergence requires error
feedback (the residual trick originated with this method).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import FP32_BYTES, Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract
from .qsgd import bucketize, check_bucket_size, pack_codes, unpack_codes

__all__ = ["OneBitCompressor"]


@register
class OneBitCompressor(Compressor):
    """Per-bucket sign quantization with two-sided mean reconstruction."""

    contract = CompressorContract("onebit", requires_error_feedback=True)
    fields = ("signs", "pos_mean", "neg_mean")

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        check_bucket_size(spec)

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        n_buckets = -(-numel // spec.bucket_size)
        return -(-numel // 8) + n_buckets * 2 * FP32_BYTES

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        buckets = bucketize(flat, self.spec.bucket_size)
        negative = buckets < 0

        pos_sum = np.where(~negative, buckets, 0.0).sum(axis=1)
        pos_count = (~negative).sum(axis=1)
        neg_sum = np.where(negative, buckets, 0.0).sum(axis=1)
        neg_count = negative.sum(axis=1)
        pos_mean = np.divide(pos_sum, np.maximum(pos_count, 1))
        neg_mean = np.divide(neg_sum, np.maximum(neg_count, 1))

        signs = negative.astype(np.uint8).ravel()[: flat.size]
        payload = {
            "signs": pack_codes(signs, 1),
            "pos_mean": pos_mean.astype(np.float32),
            "neg_mean": neg_mean.astype(np.float32),
        }
        return Compressed(self.spec, flat.size, tuple(np.shape(array)),
                          payload, self.spec.wire_bytes(flat.size))

    def decompress(self, compressed: Compressed) -> np.ndarray:
        signs = unpack_codes(compressed.payload["signs"], 1,
                             compressed.numel).astype(bool)
        negative = bucketize(signs, compressed.spec.bucket_size)
        pos = compressed.payload["pos_mean"][:, None]
        neg = compressed.payload["neg_mean"][:, None]
        values = np.where(negative, neg, pos).astype(np.float32)
        return values.ravel()[: compressed.numel].reshape(compressed.shape)
