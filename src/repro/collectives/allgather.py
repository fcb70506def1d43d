"""Allgather-based reduction: the GRACE-style scheme.

Every rank broadcasts its *whole* compressed gradient to every other
rank; each rank decompresses all N contributions and sums locally.
Only **one** quantization round per value (lowest possible error), but
the wire carries N compressed gradients instead of ~1, so bandwidth is
a factor N worse than SRA/Ring — the paper's explanation for GRACE
being >3x slower than CGX despite using the same QSGD operator
(Table 6 discussion).
"""

from __future__ import annotations

import numpy as np

from repro.compression import Compressor

from .base import Broadcast, ReduceStats, broadcast_chunks, open_reduction
from .schedules import allgather_schedule

__all__ = ["allgather_allreduce"]


def allgather_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` by all-gathering compressed gradients."""
    numel, world, stats = open_reduction("allgather", buffers, key)

    # one encode per rank, broadcast to its world-1 peers
    decoded = broadcast_chunks(compressor, rng, stats, [
        Broadcast(c, buffers[c.root].ravel(), f"{key}/{c.root}")
        for c in allgather_schedule(world).rounds[0].casts])

    total = np.sum(decoded, axis=0, dtype=np.float32)
    stats.max_recompressions = 1
    shaped = total.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats
