"""GRACE baseline (Xu et al., ICDCS'21) as characterized in the paper.

Table 6's analysis attributes GRACE's >3x deficit against CGX to three
implementation choices, all reproduced here:

* **Allgather reduction** — every rank broadcasts its whole compressed
  gradient (NCCL has no compressed allreduce), so wire traffic scales
  with world size;
* **no bucketing** — one scale for the entire tensor, hurting accuracy
  (our tests measure the error gap vs bucketed QSGD);
* **INT8 wire format** — even 4-bit codes travel as one byte each, so
  the 4-bit setting only achieves ~4x wire compression.
"""

from __future__ import annotations

from repro.compression import CompressionSpec
from repro.core import CGXConfig

__all__ = ["grace_config", "GRACE_NO_BUCKETING"]

#: GRACE quantizes each tensor with a single global scale
GRACE_NO_BUCKETING = 1 << 30


def grace_config(bits: int = 4) -> CGXConfig:
    """Engine configuration reproducing the GRACE comparison setup."""
    spec = CompressionSpec("qsgd", bits=bits, bucket_size=GRACE_NO_BUCKETING,
                           wire_dtype_bits=8)
    return CGXConfig(
        backend="nccl",
        scheme="allgather",
        compression=spec,
        filtered_keywords=(),   # GRACE compresses every tensor uniformly
        min_compress_numel=0,
        chunk_streams=1,
        overlap=False,          # hook fires after backward completes
    )
