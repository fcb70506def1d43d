"""Tree-Allreduce: hierarchical reduce + broadcast with compression.

A binary reduction tree (Section 3: "a hierarchical parameter server"):
values travel up the tree, re-quantized at every internal node
(log2 N re-compressions), then the root's final payload is broadcast
down unchanged.  Latency is O(log N) rounds but each value crosses the
wire 2 log N times, and the repeated re-compression inflates error —
both reasons the paper rejects it in favor of SRA.
"""

from __future__ import annotations

import numpy as np

from repro.compression import Compressor

from .base import (Message, ReduceStats, broadcast_chunk, open_reduction,
                   send_chunks)
from .schedules import tree_schedule

__all__ = ["tree_allreduce"]


def tree_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` across ranks via a binary reduction tree."""
    numel, world, stats = open_reduction("tree", buffers, key)
    partial = [buf.astype(np.float32).ravel().copy() for buf in buffers]

    # Reduce phase: a level's senders are no receivers of it, so each
    # level is one pass.  The root then compresses once and the payload is
    # forwarded down the tree verbatim, so every rank decodes the same
    # values; the data path emits each level's edges in reverse sender
    # order (retracing the reduce edges).
    *levels, encode, down = tree_schedule(world).rounds
    for level in levels:
        send_chunks(compressor, rng, stats, [
            [Message(m, partial[m.src], f"{key}/{m.tag}", partial[m.dst],
                     f"up/acc/{m.dst}")]
            for m in level.sends])
    (root,) = encode.casts
    result = broadcast_chunk(compressor, rng, stats, root._replace(edges=sorted(
        ((m.src, m.dst, m.step) for m in down.sends),
        key=lambda edge: (edge[2], -edge[0]))), partial[0], f"{key}/{root.tag}")
    stats.max_recompressions = len(levels) + 1
    shaped = result.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats
