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

from itertools import accumulate
from typing import Any, Sequence

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
    if bits == 4 and count % 2 == 0 and codes.flags.c_contiguous:
        # a code pair is one little-endian 16-bit lane ``first | second
        # << 8``; ``lane << 4 | lane >> 8`` puts ``first << 4 | second``
        # in its low byte (5x the column loop at gradient sizes)
        lanes = np.bitwise_and(codes.reshape(-1).view("<u2"), np.uint16(0x0F0F))
        second = lanes >> 8
        lanes <<= 4
        lanes |= second
        return lanes.astype(np.uint8)
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


def bucket_maxima(magnitudes: np.ndarray) -> np.ndarray:
    """``np.maximum.reduce(magnitudes, axis=1)``, bit for bit, for a
    float32 ``(buckets, size)`` matrix of absolute values.

    A float with a clear sign bit orders like its int32 bit pattern —
    +0 below the subnormals, inf above every finite value and NaN above
    inf — so the integer reduce finds the same maxima at a third of the
    float reduce's cost.  The two may keep different payloads of a
    bucket's NaNs, so the non-finite buckets are reduced again as floats
    and the scale that travels stays the float reduce's.
    """
    maxima = np.maximum.reduce(magnitudes.view(np.int32), axis=1).view(np.float32)
    rows = ~np.isfinite(maxima)
    if rows.any():
        maxima[rows] = np.maximum.reduce(magnitudes[rows], axis=1)
    return maxima


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
        # at 4 and 8 bits a byte holds whole codes: decoding gathers one
        # 8-byte float32 pair (one float32) per packed byte, code by code
        # MSB-first, where unpacking would touch every code twice
        self._byte_values: np.ndarray | None = None
        if spec.bits == 4:
            byte = np.arange(256, dtype=np.int64)
            self._byte_values = np.stack(
                [self._values[byte >> 4], self._values[byte & 15]],
                axis=1).view(np.uint64).reshape(-1)
        elif spec.bits == 8:
            self._byte_values = self._values

    def _quantize(self, normalized: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
        """Levels of ``normalized`` (a scratch array the rule may
        overwrite), rounding with ``draws``: one uniform uint16 per
        element, so a level rounds up with its fraction's probability to
        within 2^-16 (a bias of at most ``Δ * 2^-16`` for a level gap
        ``Δ``).  Every level is at most ``2^(bits-1) - 1``: the sign bit
        is OR-ed in above it and the level is not masked."""
        raise NotImplementedError

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        return self._compress_run([array], rng)[0]

    def decompress(self, compressed: Compressed) -> np.ndarray:
        return self._decompress_run([compressed])[0]

    def _compress_run(self, arrays: Sequence[np.ndarray],
                      rng: np.random.Generator) -> list[Compressed]:
        """Encode a run of chunks in one pass.

        Each chunk is zero-padded to whole buckets of its own clamped
        size and the run laid out flat.  A chunk rounds with 16-bit
        draws, four to a ``random_raw`` word, and takes its own
        ``ceil(padded / 4)`` words, so the run draws the words the chunks
        draw one by one and leaves the generator where they leave it.
        The codes are packed once, each chunk starting on a whole code
        group, and sliced per chunk.
        """
        spec = self.spec
        dense = [np.asarray(a, dtype=np.float32) for a in arrays]
        flats = [d.ravel() for d in dense]
        numels = [flat.size for flat in flats]
        # a collective's chunks come in one or two sizes
        distinct = {n: _bucket_shape(n, spec.bucket_size) for n in set(numels)}
        shapes = [distinct[n] for n in numels]
        padded = [n_buckets * size for n_buckets, size in shapes]
        starts = list(accumulate(padded, initial=0))
        if padded == numels:
            values = flats[0] if len(flats) == 1 else np.concatenate(flats)
        else:
            values = np.zeros(starts[-1], dtype=np.float32)
            for flat, start in zip(flats, starts):
                values[start:start + flat.size] = flat
        magnitudes = np.abs(values)
        norms: np.ndarray
        size = shapes[0][1]
        if all(shape[1] == size for shape in shapes):
            # one bucket size: the run is a (buckets, size) matrix
            magnitudes = magnitudes.reshape(-1, size)
            if spec.scaling == "l2":
                norms = np.linalg.norm(values.reshape(-1, size), axis=1)
            else:
                norms = bucket_maxima(magnitudes)
            finite = np.isfinite(norms)
            if not finite.all():
                # a NaN/Inf bucket carries its non-finite scale and
                # level-0 codes, not whatever the platform casts NaN to
                magnitudes[~finite] = 0.0
            magnitudes /= np.where(norms > 0, norms, 1.0)[:, None]
        else:
            lengths = np.repeat([shape[1] for shape in shapes],
                                [shape[0] for shape in shapes])
            if spec.scaling == "l2":
                # linalg.norm's pairwise sums, one bucket matrix a chunk
                norms = np.concatenate([
                    np.linalg.norm(bucketize(flat, spec.bucket_size), axis=1)
                    for flat in flats])
            else:
                norms = np.maximum.reduceat(
                    magnitudes, np.cumsum(lengths) - lengths)
            finite = np.isfinite(norms)
            if not finite.all():
                magnitudes[np.repeat(~finite, lengths)] = 0.0
            magnitudes /= np.repeat(np.where(norms > 0, norms, 1.0), lengths)
        words = [-(-span // 4) for span in padded]
        # draw k of a word is its bits 16k..16k+15 on every platform
        draws = rng.bit_generator.random_raw(sum(words)).astype(
            "<u8", copy=False).view("<u2")
        if all(span % 4 == 0 for span in padded[:-1]):
            draws = draws[:starts[-1]]
        else:
            draws = np.concatenate([
                draws[4 * at:4 * at + span]
                for at, span in zip(accumulate(words, initial=0), padded)])
        level = self._quantize(magnitudes,
                               draws.reshape(magnitudes.shape)).reshape(-1)
        sign_bit = (values < 0).view(np.uint8)
        sign_bit *= np.uint8(1 << (spec.bits - 1))  # uint8 shifts are slow
        level |= sign_bit

        group, width, _ = _layout(spec.bits)
        if all(span == n and n % group == 0
               for span, n in zip(padded[:-1], numels)):
            # every chunk already starts on a whole code group (the last
            # one's tail is pack_codes' to pad)
            codes = level[:starts[-2] + numels[-1]]
        else:
            grouped = list(accumulate((-(-n // group) * group for n in numels),
                                      initial=0))
            codes = np.zeros(grouped[-1], dtype=np.uint8)
            for n, at, start in zip(numels, grouped, starts):
                codes[at:at + n] = level[start:start + n]
            starts = grouped
        packed = pack_codes(codes, spec.bits)
        norms = norms.astype(np.float32)

        wire = {n: spec.wire_bytes(n) for n in distinct}
        out: list[Compressed] = []
        bucket = 0
        for d, n, (n_buckets, _), at in zip(dense, numels, shapes, starts):
            byte = at // group * width
            payload = {"codes": packed[byte:byte - (-n * spec.bits // 8)],
                       "norms": norms[bucket:bucket + n_buckets]}
            bucket += n_buckets
            out.append(Compressed(spec, n, d.shape, payload, wire[n]))
        return out

    def _decompress_run(self, compressed: Sequence[Compressed]
                        ) -> list[np.ndarray]:
        """Decode a run of chunks in one gather and one scaling pass."""
        spec = self.spec
        for c in compressed:
            if c.spec is not spec and c.spec != spec:
                # the code table is this operator's own level rule
                raise ValueError(f"{type(self).__name__} for {spec} cannot "
                                 f"decode a payload of {c.spec}")
        bits = spec.bits
        numels = [c.numel for c in compressed]
        codes = [c.payload["codes"] for c in compressed]
        norms = [c.payload["norms"] for c in compressed]
        table = self._byte_values
        if table is not None and all(
                code.size == -(-n * bits // 8) for code, n in zip(codes, numels)):
            packed = codes[0] if len(codes) == 1 else np.concatenate(codes)
            values = table.take(packed).view(np.float32)
            # a chunk's last byte may carry tail codes past its numel
            spans = [code.size * (8 // bits) for code in codes]
        else:
            unpacked = [unpack_codes(code, bits, n)
                        for code, n in zip(codes, numels)]
            values = self._values.take(unpacked[0] if len(unpacked) == 1
                                       else np.concatenate(unpacked))
            spans = numels
        starts = list(accumulate(spans, initial=0))
        distinct = {n: _bucket_shape(n, spec.bucket_size) for n in set(numels)}
        shapes = [distinct[n] for n in numels]
        if len(compressed) == 1 or any(
                norm.size != shape[0] for norm, shape in zip(norms, shapes)):
            for norm, n, start in zip(norms, numels, starts):
                scale_buckets(values[start:start + n], norm, spec.bucket_size)
        else:
            # one scale an element: a chunk's slack past its numel rides
            # on its last bucket and is sliced off below
            lengths: list[int] = []
            for (n_buckets, size), span in zip(shapes, spans):
                if n_buckets:
                    lengths += [size] * (n_buckets - 1)
                    lengths.append(span - (n_buckets - 1) * size)
            with np.errstate(invalid="ignore"):  # 0 * inf: a diverged bucket
                values *= np.repeat(np.concatenate(norms), lengths)
        return [values[start:start + n].reshape(c.shape)
                for c, n, start in zip(compressed, numels, starts)]


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
                  draws: np.ndarray) -> np.ndarray:
        # the level is ``(floor(v * levels * 2^16) + draw) >> 16``: over
        # the 2^16 draws the levels sum to the fixed-point value exactly,
        # which is within 1 of v * levels * 2^16 (a float32 product
        # below 2^23 carries at least one fraction bit)
        normalized *= self.levels * 65536.0
        fixed = normalized.astype(np.int32)  # converts faster than uint32
        fixed += draws
        fixed >>= 16
        # under a max scale no level passes ``levels``: |x| <= max, so
        # the correctly rounded |x| / max <= 1 and its correctly rounded
        # product with ``levels * 2^16`` <= levels * 2^16; a value at the
        # top has a zero fraction, and a draw below 2^16 never carries it
        # up.  An L2 norm undershoots the bucket max only by subnormal
        # rounding (by at most sqrt(1.5)), so there the value stays below
        # 2 * levels: the level is exact in uint8 and clamped there
        level = fixed.astype(np.uint8)
        if self.spec.scaling == "l2":
            np.minimum(level, self.levels, out=level)
        return level

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        return level.astype(np.float32) / self.levels
