"""Bucketed QSGD: stochastic uniform quantization with bit packing.

Implements the quantizer of Alistarh et al. (2017) as CGX deploys it
(Section 4): the gradient is split into fixed-size *buckets*, each
bucket is scaled by its own max-magnitude (the scaling the CGX kernels
use — plain L2 scaling wastes most of the code range at small bucket
sizes), and every value is stochastically rounded to one of
``s = 2^(bits-1) - 1`` levels plus a sign bit.  The wire format is the
packed codes plus one fp32 scale per bucket, so the exact transmitted
size matches :meth:`CompressionSpec.wire_bytes`.

Bucketing trades metadata overhead for accuracy: larger buckets
compress harder but have higher per-element error — the trade-off the
paper resolves at 4 bits / bucket 128 as its default.

The encoding is one frame, :class:`BucketQuantizer`, which QSGD and
NUQSGD (:mod:`.nuq`) fill with a level rule; 1-bit SGD reuses its
bucketing.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import FP32_BYTES, Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract

__all__ = ["BucketQuantizer", "QSGDCompressor", "pack_codes", "unpack_codes"]


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack small unsigned integers (< 2^bits) into a uint8 byte stream."""
    if codes.size == 0:
        return np.empty(0, dtype=np.uint8)
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    codes = codes.astype(np.uint8, copy=False)
    bit_matrix = np.unpackbits(codes[:, None], axis=1)[:, 8 - bits:]
    return np.packbits(bit_matrix.ravel())


def unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns ``count`` codes."""
    if count == 0:
        return np.empty(0, dtype=np.uint8)
    bit_stream = np.unpackbits(packed)[: count * bits]
    bit_matrix = bit_stream.reshape(count, bits)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - bits:] = bit_matrix
    return np.packbits(padded, axis=1).ravel()


def bucketize(flat: np.ndarray, bucket_size: int) -> np.ndarray:
    """``flat`` as ``(n_buckets, size)``, zero-padding the tail (a
    decoder re-bucketizes its values and drops the tail again)."""
    # clamped to the tensor: a GRACE-style bucket_size=2**30 allocates
    # one tensor-sized bucket, not 4 GiB
    size = min(bucket_size, max(1, flat.size))
    n_buckets = -(-flat.size // size)
    padded = np.zeros(n_buckets * size, dtype=flat.dtype)
    padded[: flat.size] = flat
    return padded.reshape(n_buckets, size)


def check_bucket_size(spec: CompressionSpec) -> None:
    if spec.bucket_size < 1:
        raise ValueError(f"{spec.method} bucket_size must be >= 1, "
                         f"got {spec.bucket_size}")


class BucketQuantizer(Compressor):
    """The bucketed-quantizer frame (not itself a method): bucketing,
    scaling, the sign bit, packing and wire accounting.  A subclass
    supplies :meth:`_quantize` (magnitudes in [0, 1] -> uint8 level,
    rounding with the shared generator) and its inverse."""

    fields = ("codes", "norms")

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        if not 2 <= spec.bits <= 8:
            raise ValueError(f"{spec.method} bits must be in [2, 8], "
                             f"got {spec.bits}")
        check_bucket_size(spec)
        if spec.scaling not in ("max", "l2"):
            raise ValueError(f"{spec.method}: unknown scaling {spec.scaling!r}")
        if spec.wire_dtype_bits not in (0, 8, 16, 32):  # so always >= bits
            raise ValueError(f"{spec.method} wire_dtype_bits must be 0 (packed)"
                             f", 8, 16 or 32, got {spec.wire_dtype_bits}")

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        code_bits = spec.wire_dtype_bits or spec.bits
        n_buckets = -(-numel // spec.bucket_size)
        return -(-numel * code_bits // 8) + n_buckets * FP32_BYTES

    @classmethod
    def wire_arrays(cls, compressed: Compressed) -> list[np.ndarray]:
        codes, norms = super().wire_arrays(compressed)
        spec = compressed.spec
        if spec.wire_dtype_bits:
            # GRACE: one fixed-width integer per code
            codes = unpack_codes(codes, spec.bits, compressed.numel).astype(
                f"uint{spec.wire_dtype_bits}")
        return [codes, norms]

    def _quantize(self, normalized: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        spec = self.spec
        flat = np.asarray(array, dtype=np.float32).ravel()
        buckets = bucketize(flat, spec.bucket_size)
        if spec.scaling == "l2":
            norms = np.linalg.norm(buckets, axis=1)
        else:
            norms = np.max(np.abs(buckets), axis=1)
        safe_norms = np.where(norms > 0, norms, 1.0)
        level = self._quantize(np.abs(buckets) / safe_norms[:, None], rng)
        sign_bit = (buckets < 0).astype(np.uint8)
        codes = (level | (sign_bit << (spec.bits - 1))).ravel()
        codes = codes[: flat.size]  # drop tail padding codes
        payload = {
            "codes": pack_codes(codes, spec.bits),
            "norms": norms.astype(np.float32),
        }
        return Compressed(spec, flat.size, tuple(np.shape(array)), payload,
                          spec.wire_bytes(flat.size))

    def decompress(self, compressed: Compressed) -> np.ndarray:
        spec = compressed.spec
        codes = unpack_codes(compressed.payload["codes"], spec.bits,
                             compressed.numel)
        sign_mask = np.uint8(1 << (spec.bits - 1))
        signs = np.where(codes & sign_mask, -1.0, 1.0).astype(np.float32)
        values = signs * self._dequantize(codes & (sign_mask - np.uint8(1)))
        buckets = bucketize(values, spec.bucket_size)
        buckets *= compressed.payload["norms"][:, None]
        return buckets.ravel()[: compressed.numel].reshape(compressed.shape)


@register
class QSGDCompressor(BucketQuantizer):
    """Stochastic uniform quantizer over fixed-size buckets."""

    contract = CompressorContract("qsgd", uses_rng=True,
                                  supported_bits=(2, 3, 4, 5, 6, 7, 8))

    def __init__(self, spec: CompressionSpec):
        super().__init__(spec)
        self.levels = 2 ** (spec.bits - 1) - 1  # quantization levels per sign

    def _quantize(self, normalized: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        scaled = normalized * self.levels
        lower = np.floor(scaled)
        prob = scaled - lower
        lower += rng.random(size=lower.shape) < prob
        return np.minimum(lower, self.levels).astype(np.uint8)

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        return level.astype(np.float32) / self.levels
