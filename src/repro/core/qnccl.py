"""QNCCL: quantization inside the NCCL library (the "primitive" design).

The paper contributes QNCCL as a counterpoint artifact: vanilla NCCL
with Allreduce replaced by compress-before-transfer.  Operating at the
transport level means:

* no layer information — compression parameters are uniform over raw
  fusion buffers, so bias/norm tensors get quantized and buckets mix
  values from different layers (worse accuracy than CGX, Table 3
  discussion);
* NCCL's ring algorithm and its internal resource limits, which leave
  "non-negligible compression overhead" (modeled as a kernel-cost
  multiplier in the timing path).

In this reproduction QNCCL is a configuration of the same engine:
fused-blob planning + ring reduction + uniform quantization + NCCL
backend.
"""

from __future__ import annotations

from repro.compression import CompressionSpec

from .config import CGXConfig

__all__ = ["qnccl_config", "QNCCL_KERNEL_OVERHEAD_FACTOR", "QNCCL_PLAN_MODE"]

#: extra compression-kernel cost under NCCL's resource constraints
QNCCL_KERNEL_OVERHEAD_FACTOR = 2.0
#: QNCCL always plans fused blobs — it never sees layer boundaries
QNCCL_PLAN_MODE = "fused"


def qnccl_config(bits: int = 4, bucket_size: int = 128) -> CGXConfig:
    """Engine configuration reproducing the QNCCL artifact."""
    return CGXConfig(
        backend="nccl",
        scheme="ring",
        compression=CompressionSpec("qsgd", bits=bits, bucket_size=bucket_size),
        filtered_keywords=(),      # transport level: cannot filter layers
        min_compress_numel=0,
        chunk_streams=1,
    )
