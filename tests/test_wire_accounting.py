"""Property test: the wire-byte claim equals the serialized payload.

``spec.wire_bytes`` feeds the perf model (Fig. 3/7 step times) and the
adaptive bit-width objective; ``serialize_payload`` produces the actual
bytes a real transport would move.  For every method, over random
shapes, the claim, the ``Compressed.nbytes`` declaration, and the
measured serialization must agree exactly — including the
``wire_dtype_bits`` padding cases where 4-bit codes travel one byte
each (the GRACE INT8 wire format).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import METHODS, CompressionSpec, make_compressor
from repro.core.serialization import measured_wire_bytes, serialize_payload

# one strategy per method, drawing the spec parameters that change the
# wire layout (bits, buckets, density, rank, padding width)
SPEC_STRATEGIES = {
    "none": st.just(CompressionSpec("none")),
    "fp16": st.just(CompressionSpec("fp16")),
    "qsgd": st.builds(
        lambda b, bk: CompressionSpec("qsgd", bits=b, bucket_size=bk),
        st.integers(2, 8), st.sampled_from([7, 16, 32, 128])),
    "qsgd-padded": st.builds(
        lambda b, bk: CompressionSpec("qsgd", bits=b, bucket_size=bk,
                                      wire_dtype_bits=8),
        st.integers(2, 8), st.sampled_from([16, 32, 128])),
    "qsgd-l2": st.builds(
        lambda b: CompressionSpec("qsgd", bits=b, bucket_size=32,
                                  scaling="l2"),
        st.integers(2, 8)),
    "nuq": st.builds(
        lambda b, bk: CompressionSpec("nuq", bits=b, bucket_size=bk),
        st.integers(2, 8), st.sampled_from([16, 64, 128])),
    "topk": st.builds(
        lambda d: CompressionSpec("topk", density=d),
        st.sampled_from([0.01, 0.05, 0.25, 1.0])),
    "dgc": st.builds(
        lambda d: CompressionSpec("dgc", density=d),
        st.sampled_from([0.01, 0.1, 0.5])),
    "onebit": st.builds(
        lambda bk: CompressionSpec("onebit", bucket_size=bk),
        st.sampled_from([8, 32, 512])),
    "powersgd": st.builds(
        lambda r: CompressionSpec("powersgd", rank=r),
        st.sampled_from([1, 2, 4, 100])),
    "fake": st.builds(
        lambda r: CompressionSpec("fake", ratio=r),
        st.sampled_from([2.0, 4.0, 16.0])),
}

SHAPES = st.one_of(
    st.integers(1, 700).map(lambda n: (n,)),
    st.tuples(st.integers(1, 48), st.integers(1, 48)),
)


@pytest.mark.parametrize("label", sorted(SPEC_STRATEGIES),
                         ids=sorted(SPEC_STRATEGIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wire_claim_equals_serialized_payload(label, data):
    spec = data.draw(SPEC_STRATEGIES[label])
    shape = data.draw(SHAPES)
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    array = rng.standard_normal(shape).astype(np.float32)

    compressed = make_compressor(spec).compress(array, rng, key="prop")
    claimed = spec.wire_bytes(array.size, shape)
    payload = serialize_payload(compressed)

    assert compressed.nbytes == claimed, \
        f"{label} {shape}: nbytes {compressed.nbytes} != claim {claimed}"
    assert len(payload) == claimed, \
        f"{label} {shape}: serialized {len(payload)} != claim {claimed}"
    assert measured_wire_bytes(compressed) == len(payload)
    if spec.wire_dtype_bits == 0:
        # the wire layout is the payload layout: declared fields, in
        # declared order, byte for byte
        fields = METHODS[spec.method].fields
        assert set(compressed.payload) <= set(fields)
        assert payload == b"".join(compressed.payload[name].tobytes()
                                   for name in fields
                                   if name in compressed.payload)


def test_padded_wire_format_is_wider_than_packed():
    # wire_dtype_bits=8 ships 4-bit codes one byte each: the padding is
    # real bytes on the wire and the claim must reflect it
    packed = CompressionSpec("qsgd", bits=4, bucket_size=32)
    padded = CompressionSpec("qsgd", bits=4, bucket_size=32,
                             wire_dtype_bits=8)
    n = 256
    assert padded.wire_bytes(n) > packed.wire_bytes(n)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n).astype(np.float32)
    for spec in (packed, padded):
        compressed = make_compressor(spec).compress(x, rng, key="pad")
        assert len(serialize_payload(compressed)) == spec.wire_bytes(n)


def test_serialize_payload_rejects_unknown_method():
    # a payload whose spec names no serializer is a hard error, not a guess
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64).astype(np.float32)
    compressed = make_compressor(CompressionSpec("none")).compress(x, rng)
    bad_spec = CompressionSpec.__new__(CompressionSpec)
    object.__setattr__(bad_spec, "method", "mystery")
    compressed.spec = bad_spec
    with pytest.raises(ValueError, match="no wire encoding"):
        serialize_payload(compressed)
