"""Cross-compressor property tests and metrics tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    METHODS,
    CompressionSpec,
    Compressor,
    ErrorFeedback,
    IdentityCompressor,
    make_compressor,
    register,
    measure_error,
    model_wire_bytes,
    kernel_seconds,
    relative_error,
)
from repro.compression.base import BATCH_ELEMENTS

ALL_SPECS = [
    CompressionSpec("none"),
    CompressionSpec("fp16"),
    CompressionSpec("qsgd", bits=4, bucket_size=128),
    CompressionSpec("qsgd", bits=8, bucket_size=64),
    CompressionSpec("topk", density=0.2),
    CompressionSpec("fake", ratio=4),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.method}")
def test_shape_preserved(spec):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 11)).astype(np.float32)
    comp = make_compressor(spec)
    out = comp.roundtrip(x, rng)
    assert out.shape == x.shape
    assert out.dtype == np.float32


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.method}")
def test_wire_bytes_positive_and_bounded(spec):
    n = 10_000
    wire = spec.wire_bytes(n)
    assert wire > 0
    if spec.method != "none":
        assert wire <= n * 4  # never exceeds dense fp32


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.method}")
def test_compressed_nbytes_matches_spec(spec):
    rng = np.random.default_rng(1)
    x = rng.normal(size=500).astype(np.float32)
    compressed = make_compressor(spec).compress(x, rng)
    assert compressed.nbytes == spec.wire_bytes(500)


def test_identity_and_fp16_errors():
    rng = np.random.default_rng(2)
    x = rng.normal(size=1000).astype(np.float32)
    assert relative_error(CompressionSpec("none"), x, rng) == 0.0
    fp16_err = relative_error(CompressionSpec("fp16"), x, rng)
    assert 0 < fp16_err < 1e-3


def test_fake_compression_error_matches_truncation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000).astype(np.float32)
    stats = measure_error(CompressionSpec("fake", ratio=10), x, rng)
    expected = float(np.linalg.norm(x[100:]))
    assert stats.error_norm == pytest.approx(expected, rel=1e-5)


def test_decompress_is_deterministic():
    """Compression may be stochastic, but decompressing a fixed payload
    must always give the same values (all ranks must agree)."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=300).astype(np.float32)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=64))
    compressed = comp.compress(x, rng)
    a = comp.decompress(compressed)
    b = comp.decompress(compressed.copy())
    np.testing.assert_array_equal(a, b)


@given(n=st.integers(1, 3000))
@settings(max_examples=50, deadline=None)
def test_qsgd_wire_bytes_formula(n):
    spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    buckets = -(-n // 128)
    expected = -(-(n * 4) // 8) + buckets * 4
    assert spec.wire_bytes(n) == expected


def test_grace_int8_wire_format():
    packed = CompressionSpec("qsgd", bits=4, bucket_size=128)
    int8 = CompressionSpec("qsgd", bits=4, bucket_size=128,
                           wire_dtype_bits=8)
    assert int8.wire_bytes(1024) > packed.wire_bytes(1024)
    assert int8.wire_bytes(1024) == 1024 + 8 * 4


def test_model_wire_bytes_uses_overrides():
    sizes = {"a": 1000, "b": 1000}
    specs = {"a": CompressionSpec("qsgd", bits=4, bucket_size=128)}
    total = model_wire_bytes(specs, sizes)
    # b falls back to dense
    assert total == CompressionSpec("qsgd", bits=4,
                                    bucket_size=128).wire_bytes(1000) + 4000


def test_kernel_seconds_monotone_in_bytes():
    assert kernel_seconds(1 << 20) < kernel_seconds(1 << 24)
    assert kernel_seconds(0) > 0  # launch overhead floor


def test_compression_ratio_definition():
    spec = CompressionSpec("qsgd", bits=4, bucket_size=1024)
    n = 1 << 20
    assert spec.compression_ratio(n) == pytest.approx(
        n * 4 / spec.wire_bytes(n)
    )
    assert 7.0 < spec.compression_ratio(n) < 8.0


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        CompressionSpec("zstd")


# every case constructed fine at PR 17's parent (or named the wrong
# method) and crashed or silently mis-encoded later
@pytest.mark.parametrize("kwargs, names", [
    (dict(method="onebit", bucket_size=0), "onebit bucket_size"),
    (dict(method="nuq", bucket_size=0), "nuq bucket_size"),
    (dict(method="qsgd", bits=8, wire_dtype_bits=4), "qsgd wire_dtype_bits"),
    (dict(method="qsgd", wire_dtype_bits=12), "qsgd wire_dtype_bits"),
    (dict(method="nuq", wire_dtype_bits=7), "nuq wire_dtype_bits"),
    (dict(method="nuq", bits=9), "nuq bits"),
    (dict(method="nuq", scaling="minmax"), "nuq.*scaling"),
    (dict(method="dgc", density=0.0), "dgc density"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_invalid_spec_fails_at_construction_naming_method_and_field(
        kwargs, names):
    from repro.core.serialization import spec_from_dict

    with pytest.raises(ValueError, match=names):
        CompressionSpec(**kwargs)
    with pytest.raises(ValueError, match=names):
        spec_from_dict(kwargs)     # the --config path


def _operator_classes(cls=Compressor):
    for sub in cls.__subclasses__():
        yield sub
        yield from _operator_classes(sub)


def test_method_table_is_the_set_of_declared_contracts():
    from repro.analysis.abstract import default_registry

    declared = {cls.contract.method: cls for cls in _operator_classes()
                if cls.__module__.startswith("repro.compression.")
                and "contract" in vars(cls)}
    assert METHODS == declared          # nothing unregistered, no frame in
    registry = default_registry()
    assert registry == METHODS and registry is not METHODS   # a copy
    for method, cls in METHODS.items():
        assert cls.fields, method
        assert make_compressor(CompressionSpec(method)).__class__ is cls


def test_register_refuses_a_class_without_a_contract():
    class Bare(Compressor):
        pass

    with pytest.raises(TypeError, match="Bare declares no CompressorContract"):
        register(Bare)
    assert Bare not in METHODS.values()
    # a frame's subclass inherits no contract either
    with pytest.raises(TypeError):
        register(type("Hook", (Compressor,), {"contract": None}))
    # and a contract does not register by itself: subclassing is inert
    before = dict(METHODS)
    type("Shadow", (IdentityCompressor,), {})
    assert METHODS == before


def test_with_bits_copies_spec():
    spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    other = spec.with_bits(8, 512)
    assert other.bits == 8 and other.bucket_size == 512
    assert spec.bits == 4  # original untouched


def test_measure_error_stats_fields():
    rng = np.random.default_rng(5)
    x = rng.normal(size=256).astype(np.float32)
    stats = measure_error(CompressionSpec("qsgd", bits=4, bucket_size=128),
                          x, rng, name="layer0")
    assert stats.name == "layer0"
    assert stats.numel == 256
    assert stats.grad_norm == pytest.approx(float(np.linalg.norm(x)), rel=1e-5)
    assert 0 < stats.relative < 1


# -- the batched pair: compress_many/decompress_many ---------------------------

def _batched_specs():
    """Every registered method at each width it supports, plus the
    variants the frames branch on (L2 scaling, the GRACE wire) and the
    error-feedback wrapper."""
    cases = []
    for method, cls in sorted(METHODS.items()):
        for bits in cls.contract.supported_bits or (4,):
            cases.append((CompressionSpec(method, bits=bits, bucket_size=8),
                          False))
    for method in ("qsgd", "nuq"):
        cases.append((CompressionSpec(method, bucket_size=8, scaling="l2"),
                      False))
    for wire in (8, 16):
        cases.append((CompressionSpec("qsgd", bucket_size=8,
                                      wire_dtype_bits=wire), False))
    for method in ("topk", "qsgd", "onebit"):
        cases.append((CompressionSpec(method, bucket_size=8), True))
    return cases


def _build(spec, feedback):
    compressor = make_compressor(spec)
    return ErrorFeedback(compressor) if feedback else compressor


#: chunk sizes around a bucket of 8 and around the batch budget
_SIZES = st.sampled_from([0, 1, 5, 8, 9, 16, 17, 100,
                          BATCH_ELEMENTS - 3, BATCH_ELEMENTS,
                          BATCH_ELEMENTS + 1])
#: per-bucket value patterns: normal, all zero, one NaN, one +-Inf
_FILLS = st.sampled_from(["normal", "normal", "zero", "nan", "inf", "-inf"])


def _chunk(data, size, fill):
    values = data.standard_normal(size).astype(np.float32) * 3
    if size and fill != "normal":
        hit = slice(0, min(size, 8))
        if fill == "zero":
            values[hit] = 0.0
        else:
            values[int(data.integers(min(size, 8)))] = float(fill)
    return values


@pytest.mark.parametrize("spec, feedback", _batched_specs(),
                         ids=lambda c: str(c) if isinstance(c, bool) else
                         f"{c.method}{c.bits}/{c.scaling}/w{c.wire_dtype_bits}")
@given(chunks=st.lists(st.tuples(_SIZES, _FILLS), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=12, deadline=None)
def test_batched_pair_equals_the_per_chunk_loop(spec, feedback, chunks, seed):
    data = np.random.default_rng(seed)
    arrays = [_chunk(data, size, fill) for size, fill in chunks]
    keys = [f"k{i % 3}" for i in range(len(arrays))]   # repeats share state
    looped, batched = _build(spec, feedback), _build(spec, feedback)
    rng_loop, rng_many = (np.random.default_rng(seed + 1) for _ in range(2))
    with np.errstate(all="ignore"):
        for _ in range(2):      # the second call sees the stored state
            want = [looped.compress(a, rng_loop, key=k)
                    for a, k in zip(arrays, keys)]
            got = batched.compress_many(arrays, rng_many, keys)
            assert rng_many.bit_generator.state == rng_loop.bit_generator.state
            assert len(got) == len(want)
            for w, g in zip(want, got):
                assert (g.numel, g.shape, g.nbytes) == (w.numel, w.shape,
                                                        w.nbytes)
                assert list(g.payload) == list(w.payload)
                for name in w.payload:
                    assert g.payload[name].dtype == w.payload[name].dtype
                    assert g.payload[name].tobytes() == w.payload[name].tobytes()
            decoded = batched.decompress_many(got)
            for w, d in zip(want, decoded):
                r = looped.decompress(w)
                assert (d.dtype, d.shape) == (r.dtype, r.shape)
                assert d.tobytes() == r.tobytes()
