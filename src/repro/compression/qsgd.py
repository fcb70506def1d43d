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


def _group_layout(bits: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """Where each code of one *group* sits in the MSB-first byte stream.

    A group is the shortest run of ``bits``-wide codes that fills whole
    bytes (two 4-bit codes -> one byte, eight 3-bit codes -> three).
    Returns ``(codes per group, bytes per group, pieces)``; a piece
    ``(byte, code, shift)`` says that ``code << shift`` (``>> -shift``
    when negative: the head of a code straddling two bytes) lands in
    ``byte``.  Pieces are ordered by byte and by code at once.
    """
    group = next(g for g in (1, 2, 4, 8) if g * bits % 8 == 0)
    pieces = []
    for code in range(group):
        end = (code + 1) * bits
        for byte in range(code * bits // 8, (end - 1) // 8 + 1):
            pieces.append((byte, code, 8 * (byte + 1) - end))
    return group, group * bits // 8, tuple(pieces)


_LAYOUTS = {bits: _group_layout(bits) for bits in range(1, 9)}


def _layout(bits: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    return _LAYOUTS[bits]


def _shifted(column: np.ndarray, shift: int,
             out: np.ndarray | None = None) -> np.ndarray:
    if shift >= 0:
        return np.left_shift(column, shift, out=out)
    return np.right_shift(column, -shift, out=out)


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned integers into a uint8 byte stream, ``bits`` bits
    each, most significant bit first.  Only the low ``bits`` bits of a
    code travel: higher bits are masked off, never bled into the
    neighbouring code."""
    group, width, pieces = _layout(bits)
    count = codes.size
    codes = codes.astype(np.uint8, copy=False)
    if bits == 1:
        # a 1-bit code is a bit: packbits is already the word-level
        # kernel (5x the column loop below at every size)
        return np.packbits(codes & np.uint8(1))
    n_groups = -(-count // group)
    columns = np.zeros((n_groups, group), dtype=np.uint8)  # tail codes 0
    np.bitwise_and(codes, np.uint8((1 << bits) - 1),
                   out=columns.reshape(-1)[:count])
    packed = np.empty((n_groups, width), dtype=np.uint8)
    filled = -1
    for byte, code, shift in pieces:
        if byte != filled:
            _shifted(columns[:, code], shift, out=packed[:, byte])
            filled = byte
        else:
            packed[:, byte] |= _shifted(columns[:, code], shift)
    return packed.reshape(-1)[: -(-count * bits // 8)]


def unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns ``count`` codes."""
    group, width, pieces = _layout(bits)
    needed = -(-count * bits // 8)
    if packed.size < needed:
        raise ValueError(f"{count} {bits}-bit codes need {needed} bytes, "
                         f"got {packed.size}")
    if bits == 1:
        return np.unpackbits(packed, count=count)
    n_groups = -(-count // group)
    if packed.size != n_groups * width:
        padded = np.zeros(n_groups * width, dtype=np.uint8)
        padded[:needed] = packed[:needed]
        packed = padded
    rows = packed.reshape(n_groups, width)
    codes = np.empty((n_groups, group), dtype=np.uint8)
    filled = -1
    for byte, code, shift in pieces:
        # what pack moved left by ``shift`` moves back right
        if code != filled:
            _shifted(rows[:, byte], -shift, out=codes[:, code])
            filled = code
        else:
            codes[:, code] |= _shifted(rows[:, byte], -shift)
    codes &= np.uint8((1 << bits) - 1)
    return codes.reshape(-1)[:count]


def _bucket_shape(numel: int, bucket_size: int) -> tuple[int, int]:
    """``(n_buckets, size)`` — the size clamped to the tensor, so a
    GRACE-style bucket_size=2**30 makes one tensor-sized bucket, not
    4 GiB."""
    size = min(bucket_size, max(1, numel))
    return -(-numel // size), size


def bucketize(flat: np.ndarray, bucket_size: int) -> np.ndarray:
    """``flat`` as ``(n_buckets, size)``: a view when the buckets divide
    it, else a copy with the tail zero-padded."""
    n_buckets, size = _bucket_shape(flat.size, bucket_size)
    if n_buckets * size == flat.size:
        return flat.reshape(n_buckets, size)
    padded = np.zeros(n_buckets * size, dtype=flat.dtype)
    padded[: flat.size] = flat
    return padded.reshape(n_buckets, size)


def scale_buckets(values: np.ndarray, norms: np.ndarray,
                  bucket_size: int) -> None:
    """Multiply each bucket of the flat ``values`` by its norm, in place
    (the short tail bucket included, without padding it out)."""
    _, size = _bucket_shape(values.size, bucket_size)
    whole = values.size // size
    body = values[: whole * size].reshape(whole, size)
    with np.errstate(invalid="ignore"):  # 0 * inf: a diverged bucket
        body *= norms[:whole, None]
        if whole * size < values.size:
            values[whole * size:] *= norms[whole]


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

    def __init__(self, spec: CompressionSpec) -> None:
        super().__init__(spec)
        # every code's value, sign applied (code 2^(bits-1) is -0.0),
        # tabulated from the subclass's own level rule
        codes = np.arange(2 ** spec.bits, dtype=np.uint8)
        sign_mask = np.uint8(1 << (spec.bits - 1))
        signs = np.where(codes & sign_mask, -1.0, 1.0).astype(np.float32)
        self._values = signs * self._dequantize(codes & (sign_mask - np.uint8(1)))

    def _quantize(self, normalized: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """Levels of ``normalized`` (a scratch array the rule may
        overwrite), drawing one float64 per element from ``rng``."""
        raise NotImplementedError

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        spec = self.spec
        flat = np.asarray(array, dtype=np.float32).ravel()
        buckets = bucketize(flat, spec.bucket_size)
        magnitudes = np.abs(buckets)
        if spec.scaling == "l2":
            norms = np.linalg.norm(buckets, axis=1)
        else:
            norms = np.max(magnitudes, axis=1)
        finite = np.isfinite(norms)
        if not finite.all():
            # a NaN/Inf bucket carries its non-finite scale and level-0
            # codes, not whatever the platform casts NaN to
            magnitudes[~finite] = 0.0
        magnitudes /= np.where(norms > 0, norms, 1.0)[:, None]
        level = self._quantize(magnitudes, rng)
        sign_bit = (buckets < 0).view(np.uint8)
        sign_bit <<= spec.bits - 1
        level |= sign_bit
        codes = level.reshape(-1)[: flat.size]  # drop tail padding codes
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
        values = self._values.take(codes)
        scale_buckets(values, compressed.payload["norms"], spec.bucket_size)
        return values.reshape(compressed.shape)


@register
class QSGDCompressor(BucketQuantizer):
    """Stochastic uniform quantizer over fixed-size buckets."""

    contract = CompressorContract("qsgd", uses_rng=True,
                                  supported_bits=(2, 3, 4, 5, 6, 7, 8))

    def __init__(self, spec: CompressionSpec) -> None:
        # set first: the frame tabulates _dequantize when it is built
        self.levels = 2 ** (spec.bits - 1) - 1  # quantization levels per sign
        super().__init__(spec)

    def _quantize(self, normalized: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        normalized *= self.levels
        lower = np.floor(normalized)
        normalized -= lower  # probability of rounding up
        lower += rng.random(size=lower.shape) < normalized
        return np.minimum(lower, self.levels, out=lower).astype(np.uint8)

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        return level.astype(np.float32) / self.levels
