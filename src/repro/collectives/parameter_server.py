"""Parameter-server reduction: all workers push to rank 0.

The degenerate 1-level tree: every worker sends its compressed gradient
to a single aggregator, which decompresses, sums, re-compresses and
broadcasts.  Two quantization rounds like SRA, but rank 0's links carry
all N-1 flows, so it does not scale — included as the baseline that
motivates chunk-parallel schemes.
"""

from __future__ import annotations

import numpy as np

from repro.compression import Compressor

from .base import (Message, ReduceStats, broadcast_chunk, check_buffers,
                   send_chunks)
from .trace import declare_buffer

__all__ = ["ps_allreduce"]


def ps_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` through a single aggregator at rank 0."""
    numel = check_buffers(buffers)
    world = len(buffers)
    stats = ReduceStats("ps", world, numel)
    for rank, buf in enumerate(buffers):
        declare_buffer(rank, buf, name=f"{key}/input")

    total = buffers[0].astype(np.float32).ravel().copy()
    send_chunks(compressor, rng, stats, [
        [Message(buffers[rank].ravel(), f"{key}/push/{rank}", rank, 0, 0,
                 f"push/{rank}", total, "push/agg")]
        for rank in range(1, world)])

    result = broadcast_chunk(compressor, rng, stats, total, f"{key}/bcast", 0,
                             [(0, rank, 1) for rank in range(1, world)],
                             "bcast")
    stats.max_recompressions = 2
    shaped = result.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats
