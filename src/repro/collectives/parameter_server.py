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

from .base import (Message, ReduceStats, broadcast_chunk, open_reduction,
                   send_chunks)
from .schedules import ps_schedule

__all__ = ["ps_allreduce"]


def ps_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` through a single aggregator at rank 0."""
    numel, world, stats = open_reduction("ps", buffers, key)

    (round_,) = ps_schedule(world).rounds
    total = buffers[0].astype(np.float32).ravel().copy()
    send_chunks(compressor, rng, stats, [
        [Message(m, buffers[m.src].ravel(), f"{key}/{m.tag}", total,
                 "push/agg")] for m in round_.sends])
    result = broadcast_chunk(compressor, rng, stats, round_.casts[0], total,
                             f"{key}/bcast")
    stats.max_recompressions = 2
    shaped = result.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats
