"""CGX configuration objects.

One :class:`CGXConfig` describes everything the engine needs: the
communication backend and reduction scheme, the default compression
spec, per-layer overrides, the layer filters that keep small
accuracy-critical tensors in full precision, and the scheduling knobs
(fusion, chunk streams, cross-barrier).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compression import CompressionSpec

__all__ = ["CGXConfig", "DEFAULT_FILTERED_KEYWORDS"]

#: substrings of tensor names reduced in full precision by default —
#: biases plus batch/layer norms, per Section 3 ("layers like batch/layer
#: normalization and bias layers are sensitive to gradient compression,
#: while being small").
DEFAULT_FILTERED_KEYWORDS = ("bias", "bn", "ln", "norm", "batchnorm")


@dataclass
class CGXConfig:
    """Engine configuration.

    Attributes:
        backend: point-to-point transport (``shm | nccl | mpi``).
        scheme: reduction algorithm
            (``sra | ring | tree | allgather | ps | hier``).
        compression: default spec for non-filtered layers.  The paper's
            baseline is 4-bit QSGD, bucket 128 (Transformers) or 1024
            (CNNs).
        filtered_keywords: name substrings always reduced in fp32.
        min_compress_numel: tensors smaller than this are treated like
            filtered layers (compression kernels don't pay off).  The
            ``cgx`` plan packs every filtered tensor into one fp32
            package; the ``fused`` plan ignores filters.
        per_layer: name -> spec overrides (the adaptive algorithm and the
            public API write here).
        fusion_bytes: fusion-buffer size for blob-mode engines (NCCL
            baseline and QNCCL); CGX itself reduces per layer.
        chunk_streams: parallel GPU streams for SRA chunks (+5% in the
            paper's Transformer-XL benchmark).
        cross_barrier: start reductions before the global barrier; minor
            effect on a single node, per the paper.
        overlap: start a package's reduction as soon as its gradients are
            emitted (all CGX/NCCL paths).  GRACE's hook processes the
            gradient after the backward pass completes (overlap=False).
    """

    backend: str = "shm"
    scheme: str = "sra"
    compression: CompressionSpec = field(
        default_factory=lambda: CompressionSpec("qsgd", bits=4, bucket_size=128)
    )
    filtered_keywords: tuple[str, ...] = DEFAULT_FILTERED_KEYWORDS
    min_compress_numel: int = 2048
    per_layer: dict[str, CompressionSpec] = field(default_factory=dict)
    fusion_bytes: int = 25 * 1024 * 1024
    chunk_streams: int = 4
    cross_barrier: bool = False
    overlap: bool = True

    def spec_for(self, layer_name: str) -> CompressionSpec:
        """Effective compression spec for a tensor name."""
        override = self.per_layer.get(layer_name)
        if override is not None:
            return override
        return self.compression

    def with_compression(self, spec: CompressionSpec) -> "CGXConfig":
        return replace(self, compression=spec, per_layer=dict(self.per_layer))

    @staticmethod
    def baseline_nccl() -> "CGXConfig":
        """The uncompressed Horovod-NCCL / DDP-NCCL baseline: fused fp32
        buckets over ring allreduce, no filtering."""
        return CGXConfig(
            backend="nccl",
            scheme="ring",
            compression=CompressionSpec("none"),
            filtered_keywords=(),
            chunk_streams=1,
        )

    @staticmethod
    def cgx_default(bucket_size: int = 128) -> "CGXConfig":
        """CGX as evaluated: 4-bit QSGD, SHM backend, SRA reduction."""
        return CGXConfig(
            compression=CompressionSpec("qsgd", bits=4, bucket_size=bucket_size)
        )
