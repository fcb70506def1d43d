"""Compression operator API.

A :class:`CompressionSpec` is a declarative description (method + its
parameters) that both the data path (actual compress/decompress of numpy
gradients) and the performance model (wire-size and kernel-cost
accounting) consume.  :func:`make_compressor` instantiates the matching
operator.

A method is one :class:`Compressor` subclass: it declares its contract,
parameter validation, wire size and payload field order, and
:func:`register` enters it into :data:`METHODS`, the one table spec
validation, :func:`make_compressor`, the wire encoding and the contract
checker read.

Wire-size accounting is exact: e.g. 4-bit QSGD with bucket size 128
costs ``numel * 4 bits`` of payload plus one fp32 scale per bucket,
which is the 4-bit + metadata layout CGX transmits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Optional, Sequence, TypeVar

import numpy as np

from .contracts import CompressorContract

__all__ = ["CompressionSpec", "Compressed", "Compressor", "METHODS",
           "register", "make_compressor", "BATCH_ELEMENTS", "batch_runs"]

FP32_BYTES = 4
#: element budget of one batched pass: :meth:`Compressor.compress_many`
#: encodes a run of consecutive chunks together while their element
#: total stays within it, and a larger chunk alone.  It bounds the
#: pass's temporaries (the float32 magnitudes and the int32 fixed-point
#: levels are 4 bytes an element each) to what one large chunk already
#: costs.
BATCH_ELEMENTS = 1 << 14
Shape = Optional[tuple[int, ...]]

#: the one ``method -> operator class`` table, filled by :func:`register`
METHODS: dict[str, type[Compressor]] = {}


def operator_class(method: str) -> type[Compressor]:
    """The registered class implementing ``method``."""
    try:
        return METHODS[method]
    except KeyError:
        raise ValueError(f"unknown compression method {method!r}") from None


def batch_runs(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """``(start, stop)`` runs covering ``sizes`` in order: each run's
    total stays within :data:`BATCH_ELEMENTS`, except a run of one
    larger item."""
    if sum(sizes) <= BATCH_ELEMENTS:
        return [(0, len(sizes))] if sizes else []
    runs: list[tuple[int, int]] = []
    start, total = 0, 0
    for index, size in enumerate(sizes):
        if index > start and total + size > BATCH_ELEMENTS:
            runs.append((start, index))
            start, total = index, 0
        total += size
    return runs + [(start, len(sizes))]


@dataclass(frozen=True)
class CompressionSpec:
    """Declarative compression configuration for one tensor (or globally).

    Attributes:
        method: ``none | fp16 | qsgd | nuq | topk | powersgd | fake |
            onebit | dgc`` (``nuq`` = NUQSGD exponential levels;
            ``onebit`` = Seide et al. 1-bit SGD; ``dgc`` = Deep Gradient
            Compression with momentum correction).
        bits: quantization bit-width (qsgd/nuq), including the sign bit.
        bucket_size: elements per quantization bucket (qsgd/nuq/onebit).
        density: fraction of elements kept (topk).
        rank: decomposition rank (powersgd).
        ratio: transmitted fraction is ``1/ratio`` (fake).
        error_feedback: maintain a residual and fold it into the next
            step (topk and powersgd require this to converge).
        wire_dtype_bits: if nonzero, each quantized code travels in a
            fixed-width integer of this many bits instead of being
            bit-packed — the GRACE INT8 wire format (its 4-bit setting
            still sends one byte per value).
    """

    method: str = "none"
    bits: int = 4
    bucket_size: int = 128
    #: bucket scale: "max" (CGX kernels: max-magnitude) or "l2" (the
    #: original QSGD/NUQSGD papers: bucket L2 norm)
    scaling: str = "max"
    density: float = 0.01
    rank: int = 4
    ratio: float = 1.0
    error_feedback: bool = False
    wire_dtype_bits: int = 0

    def __post_init__(self) -> None:
        operator_class(self.method).validate(self)

    def wire_bytes(self, numel: int, shape: Shape = None) -> int:
        """Exact transmitted bytes for a tensor of ``numel`` elements."""
        if numel == 0:
            return 0
        return METHODS[self.method].wire_bytes(self, numel, shape)

    def compression_ratio(self, numel: int, shape: Shape = None) -> float:
        """Dense fp32 bytes divided by wire bytes."""
        return numel * FP32_BYTES / self.wire_bytes(numel, shape)

    def with_bits(self, bits: int, bucket_size: int | None = None
                  ) -> "CompressionSpec":
        """Copy of this spec with a different bit-width (adaptive path)."""
        return replace(self, bits=bits,
                       bucket_size=bucket_size or self.bucket_size)


@dataclass
class Compressed:
    """Result of compressing one tensor: wire payload plus metadata."""

    spec: CompressionSpec
    numel: int
    shape: tuple[int, ...]
    payload: "dict[str, np.ndarray]"
    nbytes: int

    def copy(self) -> "Compressed":
        return Compressed(self.spec, self.numel, self.shape,
                          {k: v.copy() for k, v in self.payload.items()},
                          self.nbytes)


class Compressor:
    """Base compressor: compress/decompress numpy arrays.

    Stateless by default; stateful methods (error feedback, PowerSGD
    warm start) key their state on a caller-provided ``key`` argument
    (typically ``(worker, layer_name)``).
    """

    #: declared invariants; :func:`register` refuses a class without
    #: one (and CON001 reports one injected past it)
    contract: ClassVar[CompressorContract | None] = None
    #: payload field names in wire order: the wire encoding is the
    #: concatenation of these arrays' bytes (a field the payload omits,
    #: like PowerSGD's 1-D fallback, is skipped)
    fields: ClassVar[tuple[str, ...]] = ()
    #: the operator cannot take fp16 gradients (``compress`` raises
    #: ``TypeError``), so a run that uses it trains in fp32
    fp32_only: ClassVar[bool] = False
    #: the operator factors each matrix into associative P and Q factors:
    #: its packages never group (the factors are per matrix), and its
    #: collective is the dependent pair P-allreduce -> orthonormalize
    #: kernel -> Q-allreduce, which ``collectives.time_allreduce`` prices
    factored: ClassVar[bool] = False

    def __init__(self, spec: CompressionSpec) -> None:
        self.spec = spec

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        """Raise ``ValueError`` for parameters this method cannot run."""

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        """Exact transmitted bytes of a ``numel >= 1`` element tensor."""
        raise NotImplementedError

    @classmethod
    def wire_arrays(cls, compressed: Compressed) -> list[np.ndarray]:
        """The payload arrays as they travel, in wire order."""
        return [compressed.payload[name] for name in cls.fields
                if name in compressed.payload]

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        raise NotImplementedError

    def decompress(self, compressed: Compressed) -> np.ndarray:
        raise NotImplementedError

    #: a frame's batched kernels: ``_compress_run(arrays, rng)`` and
    #: ``_decompress_run(compressed)`` compute a run of chunks in one
    #: pass, exactly as ``compress``/``decompress`` would one by one
    _compress_run: Any = None
    _decompress_run: Any = None

    @classmethod
    def _batches(cls, method: str, kernel: str) -> bool:
        """Whether ``kernel`` stands in for ``method``: the class that
        defines ``method`` must define ``kernel`` too, so a subclass
        overriding ``compress`` is never bypassed by its frame's pass."""
        for klass in cls.__mro__:
            if method in vars(klass):
                return vars(klass).get(kernel) is not None
        return False

    def compress_many(self, arrays: Sequence[np.ndarray],
                      rng: np.random.Generator,
                      keys: Sequence[Any] | None = None) -> list[Compressed]:
        """``[compress(a, rng, key=k) for a, k in zip(arrays, keys)]``,
        bit for bit (payload bytes, ``nbytes``, shapes and the generator
        state afterwards), in as few passes as :data:`BATCH_ELEMENTS`
        allows.  Payload arrays may be views of one shared buffer."""
        if keys is None:
            keys = [None] * len(arrays)
        if not self._batches("compress", "_compress_run"):
            return [self.compress(array, rng, key=key)
                    for array, key in zip(arrays, keys)]
        out: list[Compressed] = []
        for start, stop in batch_runs([np.asarray(a).size for a in arrays]):
            if stop - start == 1:   # a lone chunk is the per-chunk call
                out.append(self.compress(arrays[start], rng, key=keys[start]))
            else:
                out.extend(self._compress_run(arrays[start:stop], rng))
        return out

    def decompress_many(self, compressed: Sequence[Compressed]
                        ) -> list[np.ndarray]:
        """``[decompress(c) for c in compressed]``, bit for bit."""
        if not self._batches("decompress", "_decompress_run"):
            return [self.decompress(c) for c in compressed]
        out: list[np.ndarray] = []
        for start, stop in batch_runs([c.numel for c in compressed]):
            if stop - start == 1:
                out.append(self.decompress(compressed[start]))
            else:
                out.extend(self._decompress_run(compressed[start:stop]))
        return out

    def roundtrip(self, array: np.ndarray, rng: np.random.Generator,
                  key: Any = None) -> np.ndarray:
        return self.decompress(self.compress(array, rng, key=key))

    def error_norm(self, array: np.ndarray, rng: np.random.Generator) -> float:
        """L2 norm of the compression error on ``array``."""
        restored = self.roundtrip(array, rng)
        return float(np.linalg.norm(array.ravel() - restored.ravel()))


_C = TypeVar("_C", bound=type[Compressor])


def register(cls: _C) -> _C:
    """Class decorator entering an operator into :data:`METHODS`."""
    if cls.contract is None:
        raise TypeError(f"{cls.__name__} declares no CompressorContract")
    METHODS[cls.contract.method] = cls
    return cls


def make_compressor(spec: CompressionSpec) -> Compressor:
    """Instantiate the operator implementing ``spec``."""
    return operator_class(spec.method)(spec)
