"""Tests for bucketed QSGD quantization and bit packing."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression import CompressionSpec, QSGDCompressor, make_compressor
from repro.compression.qsgd import (bucket_maxima, bucketize, pack_codes,
                                    unpack_codes)


@given(
    codes=st.lists(st.integers(0, 255), min_size=0, max_size=200),
    bits=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(codes, bits):
    arr = np.array([c % (1 << bits) for c in codes], dtype=np.uint8)
    packed = pack_codes(arr, bits)
    restored = unpack_codes(packed, bits, len(arr))
    np.testing.assert_array_equal(restored, arr)


def _reference_pack(codes: np.ndarray, bits: int) -> np.ndarray:
    """``pack_codes`` as it stood before the word-level kernels (PR 22's
    parent, verbatim): the oracle for the byte layout."""
    if codes.size == 0:
        return np.empty(0, dtype=np.uint8)
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    codes = codes.astype(np.uint8, copy=False)
    bit_matrix = np.unpackbits(codes[:, None], axis=1)[:, 8 - bits:]
    return np.packbits(bit_matrix.ravel())


def _reference_unpack(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """``unpack_codes`` of PR 22's parent, verbatim."""
    if count == 0:
        return np.empty(0, dtype=np.uint8)
    bit_stream = np.unpackbits(packed)[: count * bits]
    bit_matrix = bit_stream.reshape(count, bits)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - bits:] = bit_matrix
    return np.packbits(padded, axis=1).ravel()


def _assert_matches_reference(codes: np.ndarray, bits: int) -> None:
    packed = pack_codes(codes, bits)
    reference = _reference_pack(codes, bits)
    assert packed.dtype == np.uint8
    np.testing.assert_array_equal(packed, reference)
    unpacked = unpack_codes(reference, bits, codes.size)
    assert unpacked.dtype == np.uint8
    np.testing.assert_array_equal(
        unpacked, _reference_unpack(reference, bits, codes.size))


@given(
    data=st.data(),
    bits=st.integers(1, 8),
    size=st.one_of(st.sampled_from([0, 1, 7, 8, 9, 300]), st.integers(0, 300)),
)
@settings(max_examples=120, deadline=None)
def test_kernels_match_the_reference_byte_for_byte(data, bits, size):
    codes = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                               min_size=size, max_size=size))
    _assert_matches_reference(np.array(codes, dtype=np.uint8), bits)


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("size", [100003, 2 ** 17])
def test_kernels_match_the_reference_on_large_streams(bits, size):
    rng = np.random.default_rng([bits, size])
    codes = rng.integers(0, 1 << bits, size=size).astype(np.uint8)
    _assert_matches_reference(codes, bits)


def test_out_of_range_codes_are_masked_not_bled_into_neighbours():
    np.testing.assert_array_equal(
        pack_codes(np.array([31, 1], dtype=np.uint8), 4), [0xF1])
    rng = np.random.default_rng(0)
    wide = rng.integers(0, 256, size=1001).astype(np.uint8)
    for bits in range(1, 9):
        np.testing.assert_array_equal(
            pack_codes(wide, bits),
            pack_codes(wide & np.uint8((1 << bits) - 1), bits))
        np.testing.assert_array_equal(pack_codes(wide, bits),
                                      _reference_pack(wide, bits))
    # wider integer dtypes wrap to a byte first, as before
    np.testing.assert_array_equal(pack_codes(np.array([300, 1]), 4), [0xC1])


@given(
    codes=st.lists(st.integers(0, 255), min_size=0, max_size=300),
    stride=st.sampled_from([1, 1, 2, 3]),
    offset=st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_lane_pack_of_4_bit_codes_matches_the_reference(codes, stride, offset):
    # even and odd counts, codes above 15 (masked, never bled into the
    # neighbour) and strided or offset views take the same byte stream
    whole = np.array(codes, dtype=np.uint8)
    view = whole[offset::stride]
    np.testing.assert_array_equal(pack_codes(view, 4), _reference_pack(view, 4))
    np.testing.assert_array_equal(pack_codes(view.astype(np.int64), 4),
                                  _reference_pack(view, 4))


#: int32 bit patterns of the awkward float32 values: +-0, the smallest
#: and largest subnormals, the smallest normal, 1, the largest finite,
#: +-inf and NaNs of several payloads, quiet and signalling
_SPECIAL_BITS = [0, -2 ** 31, 1, 0x007FFFFF, -2 ** 31 + 0x007FFFFF, 0x00800000,
                 0x3F800000, 0x7F7FFFFF, 0x7F800000, -2 ** 31 + 0x7F800000,
                 0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0x7FA5A5A5,
                 -2 ** 31 + 0x7FC00001]


@given(
    data=st.data(),
    buckets=st.integers(1, 6),
    size=st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_int_view_bucket_maxima_equal_the_float_reduce_bit_for_bit(
        data, buckets, size):
    bit_patterns = data.draw(st.lists(
        st.one_of(st.sampled_from(_SPECIAL_BITS),
                  st.integers(-2 ** 31, 2 ** 31 - 1)),
        min_size=buckets * size, max_size=buckets * size))
    x = np.array(bit_patterns, dtype=np.int32).view(np.float32)
    # ties at the maximum: copy a bucket's largest element elsewhere
    ties = data.draw(st.lists(st.integers(0, buckets * size - 1), max_size=4))
    for at in ties:
        bucket = x[at - at % size: at - at % size + size]
        bucket[at % size] = bucket[np.argmax(np.abs(bucket).view(np.int32))]
    magnitudes = np.abs(x).reshape(buckets, size)
    want = np.maximum.reduce(magnitudes, axis=1)
    np.testing.assert_array_equal(bucket_maxima(magnitudes).view(np.int32),
                                  want.view(np.int32))
    # and the scale that travels is the float reduce's, NaN payloads too
    comp = make_compressor(_spec(bucket=size))
    with np.errstate(invalid="ignore"):
        norms = comp.compress(x, np.random.default_rng(0)).payload["norms"]
    np.testing.assert_array_equal(norms.view(np.int32), want.view(np.int32))


@given(
    bits=st.integers(2, 8),
    size=st.integers(1, 64),
    values=st.lists(st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.sampled_from([2.0 ** k for k in (-149, -126, -20, -1, 0, 1, 7, 127)]),
    ), min_size=1, max_size=200),
    ties=st.lists(st.integers(0, 199), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_max_scaled_qsgd_levels_never_pass_the_top(bits, size, values, ties):
    # no clamp runs under max scaling: the proof in QSGDCompressor's
    # _quantize must hold for elements equal to their bucket maximum,
    # powers of two and subnormal scales
    x = np.array(values, dtype=np.float32)
    for at in ties:
        if at < x.size:
            start = at - at % size
            bucket = x[start:start + size]
            x[at] = -bucket[np.argmax(np.abs(bucket))]
    comp = make_compressor(_spec(bits=bits, bucket=size))
    magnitudes = np.abs(bucketize(x, size))
    norms = bucket_maxima(magnitudes)
    normalized = magnitudes / np.where(norms > 0, norms, 1.0)[:, None]
    for seed in range(3):
        draws = np.random.default_rng(seed).integers(
            1 << 16, size=normalized.shape, dtype=np.uint16)
        level = comp._quantize(normalized.copy(), draws)
        assert level.max() <= comp.levels
    # the worst case: every draw carries a nonzero fraction up
    level = comp._quantize(normalized.copy(),
                           np.full(normalized.shape, 0xFFFF, dtype=np.uint16))
    assert level.max() <= comp.levels
    # end to end, an element at its bucket's maximum decodes exactly
    out = comp.roundtrip(x, np.random.default_rng(0))
    peaks = np.abs(bucketize(x, size)) == norms[:, None]
    peaks = peaks.reshape(-1)[:x.size] & (x != 0)
    np.testing.assert_array_equal(out[peaks], x[peaks])


@pytest.mark.parametrize("bits", [0, 9, -1])
def test_pack_and_unpack_validate_the_width_first(bits):
    with pytest.raises(ValueError, match=r"bits must be in \[1, 8\]"):
        pack_codes(np.empty(0, dtype=np.uint8), bits)
    with pytest.raises(ValueError, match=r"bits must be in \[1, 8\]"):
        unpack_codes(np.zeros(4, dtype=np.uint8), bits, 2)
    with pytest.raises(ValueError, match=r"bits must be in \[1, 8\]"):
        unpack_codes(np.zeros(4, dtype=np.uint8), bits, 0)


def test_unpack_rejects_a_short_payload_naming_both_sizes():
    with pytest.raises(ValueError, match=r"need 5 bytes, got 1"):
        unpack_codes(np.zeros(1, dtype=np.uint8), 4, 10)
    with pytest.raises(ValueError, match=r"need 4 bytes, got 3"):
        unpack_codes(np.zeros(3, dtype=np.uint8), 3, 9)
    with pytest.raises(ValueError, match=r"need 2 bytes, got 1"):
        unpack_codes(np.zeros(1, dtype=np.uint8), 1, 9)
    # a longer payload is fine: only the leading bytes are read
    np.testing.assert_array_equal(
        unpack_codes(np.array([0xAB, 0xCD, 0xEF], dtype=np.uint8), 4, 3),
        [0xA, 0xB, 0xC])


def test_pack_achieves_bit_density():
    codes = np.zeros(1000, dtype=np.uint8)
    assert pack_codes(codes, 4).size == 500
    assert pack_codes(codes, 2).size == 250
    assert pack_codes(codes, 8).size == 1000


def test_pack_rejects_bad_bits():
    with pytest.raises(ValueError):
        pack_codes(np.zeros(4, dtype=np.uint8), 9)


def _spec(bits=4, bucket=128):
    return CompressionSpec("qsgd", bits=bits, bucket_size=bucket)


def test_roundtrip_preserves_shape_and_dtype():
    comp = make_compressor(_spec())
    rng = np.random.default_rng(0)
    x = rng.normal(size=(13, 7)).astype(np.float32)
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape
    assert out.dtype == np.float32


def test_zero_vector_exact():
    comp = make_compressor(_spec())
    x = np.zeros(300, dtype=np.float32)
    np.testing.assert_array_equal(comp.roundtrip(x, np.random.default_rng(0)),
                                  x)


@given(bits=st.integers(2, 8), v=st.floats(0.0, 1.0, width=32))
@example(bits=4, v=1.0)
@example(bits=8, v=float(np.nextafter(np.float32(1), np.float32(0))))
@example(bits=2, v=2.0 ** -149)
@settings(max_examples=60, deadline=None)
def test_quantization_is_unbiased(bits, v):
    # over every one of the 2^16 draws the levels sum to the fixed-point
    # value floor(v * L * 2^16) exactly, which is within 1 of v * L * 2^16:
    # the expected level is v * L to within 2^-16 of a level, a bias of
    # at most Δ * 2^-16 for the level gap Δ = scale / L
    comp = make_compressor(_spec(bits=bits))
    draws = np.arange(1 << 16, dtype=np.uint16)
    level = comp._quantize(np.full(1 << 16, v, dtype=np.float32), draws)
    target = int(np.float32(v) * np.float32(comp.levels * 65536))
    assert int(level.sum(dtype=np.int64)) == target
    assert abs(target - v * comp.levels * 65536) < 1
    assert set(np.unique(level)) <= {target >> 16, (target >> 16) + 1}


def _words(numel: int, bucket: int) -> int:
    """``random_raw`` words a chunk draws: four per padded element."""
    size = min(bucket, max(1, numel))
    return -(-(-(-numel // size) * size) // 4)


@pytest.mark.parametrize("method", ["qsgd", "nuq"])
@pytest.mark.parametrize("bucket", [1, 7, 128, 2 ** 30])
@pytest.mark.parametrize("numel", [1, 5, 8, 128, 129, 301, 1001])
def test_a_chunk_draws_a_word_per_four_padded_elements(method, bucket, numel):
    # one random_raw word carries four 16-bit draws; a per-element
    # float64 draw (a word an element) fails this for every chunk of
    # more than one padded element
    comp = make_compressor(CompressionSpec(method, bits=4, bucket_size=bucket))
    x = np.random.default_rng(numel).normal(size=numel).astype(np.float32)
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    comp.compress(x, rng)
    fresh.bit_generator.random_raw(_words(numel, bucket))
    assert rng.bit_generator.state == fresh.bit_generator.state
    # a batched run draws each chunk's words in turn
    chunks = [x, x[:3], x[: numel // 2]]
    comp.compress_many(chunks, rng)
    for chunk in chunks:
        fresh.bit_generator.random_raw(_words(chunk.size, bucket))
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_error_decreases_with_bits():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4096).astype(np.float32)
    errors = []
    for bits in [2, 3, 4, 6, 8]:
        comp = make_compressor(_spec(bits=bits))
        restored = comp.roundtrip(x, np.random.default_rng(0))
        errors.append(float(np.linalg.norm(x - restored)))
    assert errors == sorted(errors, reverse=True)


def test_larger_buckets_increase_error():
    """The paper's bucket trade-off: bigger buckets, higher error."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=8192).astype(np.float32)
    small = make_compressor(_spec(bucket=64)).error_norm(
        x, np.random.default_rng(0))
    large = make_compressor(_spec(bucket=4096)).error_norm(
        x, np.random.default_rng(0))
    assert small < large


def test_larger_buckets_reduce_wire_size():
    small = _spec(bucket=64).wire_bytes(8192)
    large = _spec(bucket=4096).wire_bytes(8192)
    assert large < small


def test_wire_bytes_exact_accounting():
    spec = _spec(bits=4, bucket=128)
    # 1000 elements: 500 payload bytes + ceil(1000/128)=8 norms * 4
    assert spec.wire_bytes(1000) == 500 + 8 * 4
    comp = make_compressor(spec)
    compressed = comp.compress(np.ones(1000, dtype=np.float32),
                               np.random.default_rng(0))
    payload = compressed.payload
    actual = payload["codes"].nbytes + payload["norms"].nbytes
    assert actual == spec.wire_bytes(1000)


def test_values_bounded_by_bucket_max():
    rng = np.random.default_rng(4)
    x = rng.normal(size=256).astype(np.float32)
    comp = make_compressor(_spec())
    out = comp.roundtrip(x, rng)
    assert float(np.abs(out).max()) <= float(np.abs(x).max()) * (1 + 1e-5)


def test_non_multiple_of_bucket_size():
    comp = make_compressor(_spec(bucket=128))
    rng = np.random.default_rng(5)
    x = rng.normal(size=130).astype(np.float32)  # 2 buckets, tail of 2
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape
    err = np.linalg.norm(out - x) / np.linalg.norm(x)
    assert err < 0.5


@given(bits=st.integers(2, 8), n=st.integers(1, 600))
@settings(max_examples=40, deadline=None)
def test_roundtrip_error_bounded_property(bits, n):
    """Relative error is bounded by the quantization step size."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n).astype(np.float32)
    comp = QSGDCompressor(CompressionSpec("qsgd", bits=bits, bucket_size=64))
    out = comp.roundtrip(x, np.random.default_rng(0))
    levels = 2 ** (bits - 1) - 1
    # per-element error at most one grid step of its bucket's max
    step = np.abs(x).max() / levels
    assert float(np.abs(out - x).max()) <= step + 1e-5


def test_spec_validation():
    with pytest.raises(ValueError):
        CompressionSpec("qsgd", bits=1)
    with pytest.raises(ValueError):
        CompressionSpec("qsgd", bits=9)
    with pytest.raises(ValueError):
        CompressionSpec("qsgd", bucket_size=0)


def test_huge_bucket_size_does_not_overallocate():
    """Regression: GRACE-style bucket_size=2^30 on a small tensor must
    quantize with a single tensor-sized bucket, not allocate a
    bucket_size-padded (4 GB) buffer.  The whole suite once died on
    this via the OOM killer."""
    spec = CompressionSpec("qsgd", bits=4, bucket_size=1 << 30)
    comp = make_compressor(spec)
    rng = np.random.default_rng(0)
    x = rng.normal(size=65_536).astype(np.float32)
    compressed = comp.compress(x, rng)
    assert compressed.payload["norms"].size == 1  # one global scale
    out = comp.decompress(compressed)
    assert out.shape == x.shape
    rel = np.linalg.norm(out - x) / np.linalg.norm(x)
    assert rel < 1.0


@pytest.mark.parametrize("method", ["qsgd", "nuq"])
@pytest.mark.parametrize("scaling", ["max", "l2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bucket_gets_level_zero_codes_and_keeps_its_scale(
        method, scaling, bad):
    """A diverged bucket must not put ``NaN.astype(uint8)`` (platform
    dependent, with a RuntimeWarning) on the wire."""
    spec = CompressionSpec(method, bits=4, bucket_size=128, scaling=scaling)
    comp = make_compressor(spec)
    x = np.random.default_rng(0).normal(size=300).astype(np.float32)
    x[130] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compressed = comp.compress(x, np.random.default_rng(1))
        out = comp.decompress(compressed)
    codes = unpack_codes(compressed.payload["codes"], 4, x.size)
    assert not np.isfinite(compressed.payload["norms"][1])
    np.testing.assert_array_equal(codes[128:256] & 0x7, 0)  # level bits
    np.testing.assert_array_equal(codes[128:256] >> 3, x[128:256] < 0)
    assert not np.isfinite(out[128:256]).any()
    # the healthy buckets are quantized exactly as without the bad value
    x[130] = 0.5
    clean = comp.compress(x, np.random.default_rng(1))
    clean_codes = unpack_codes(clean.payload["codes"], 4, x.size)
    for bucket in (slice(0, 128), slice(256, 300)):
        np.testing.assert_array_equal(codes[bucket], clean_codes[bucket])
        assert np.isfinite(out[bucket]).all()


@pytest.mark.parametrize("ours,theirs", [(8, 4), (4, 8), (4, 3)])
def test_a_payload_of_another_spec_is_refused_naming_both(ours, theirs):
    # the code table is the operator's own: an 8-bit operator once
    # decoded a 4-bit payload to silently wrong values
    x = np.random.default_rng(0).standard_normal(300).astype(np.float32)
    foreign = make_compressor(_spec(bits=theirs)).compress(
        x, np.random.default_rng(1))
    comp = make_compressor(_spec(bits=ours))
    own = comp.compress(x, np.random.default_rng(1))
    pattern = rf"bits={ours}.*cannot decode.*bits={theirs}"
    with pytest.raises(ValueError, match=pattern):
        comp.decompress(foreign)
    with pytest.raises(ValueError, match=pattern):
        comp.decompress_many([own, foreign, own])


def test_a_payload_of_another_method_or_bucket_is_refused():
    x = np.random.default_rng(0).standard_normal(300).astype(np.float32)
    comp = make_compressor(_spec())
    for other in (CompressionSpec("nuq", bits=4, bucket_size=128),
                  _spec(bucket=64)):
        foreign = make_compressor(other).compress(x, np.random.default_rng(1))
        with pytest.raises(ValueError, match="cannot decode"):
            comp.decompress(foreign)
    # an equal spec built separately is the operator's own
    same = make_compressor(_spec()).compress(x, np.random.default_rng(1))
    np.testing.assert_array_equal(
        comp.decompress(same),
        comp.decompress(comp.compress(x, np.random.default_rng(1))))
