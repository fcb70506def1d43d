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

from .base import (Message, ReduceStats, broadcast_chunk, check_buffers,
                   send_chunks)
from .trace import declare_buffer

__all__ = ["tree_allreduce"]


def tree_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` across ranks via a binary reduction tree."""
    numel = check_buffers(buffers)
    world = len(buffers)
    stats = ReduceStats("tree", world, numel)
    for rank, buf in enumerate(buffers):
        declare_buffer(rank, buf, name=f"{key}/input")
    partial = [buf.astype(np.float32).ravel().copy() for buf in buffers]

    # Reduce phase: at stride s, rank r (multiple of 2s) absorbs rank r+s.
    stride = 1
    depth = 0
    edges: list[tuple[int, int, int]] = []  # (parent, child, reduce step)
    while stride < world:
        # a level's senders are no receivers of it: one pass per level
        level = []
        for receiver in range(0, world - stride, 2 * stride):
            sender = receiver + stride
            tag = f"up/{stride}/{sender}"
            level.append([Message(partial[sender], f"{key}/{tag}", sender,
                                  receiver, depth, tag, partial[receiver],
                                  f"up/acc/{receiver}")])
            edges.append((receiver, sender, depth))
        send_chunks(compressor, rng, stats, level)
        stride *= 2
        depth += 1

    # Broadcast phase: the root compresses once; the payload is forwarded
    # down the tree verbatim so every rank decodes the same values.  The
    # forwarding retraces the reduce edges parent->child in reverse stride
    # order (the edge reduced at step k is broadcast at step 2*depth-1-k).
    result = broadcast_chunk(
        compressor, rng, stats, partial[0], f"{key}/down", 0,
        [(parent, child, 2 * depth - 1 - k)
         for parent, child, k in reversed(edges)], "down")
    stats.max_recompressions = depth + 1
    shaped = result.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats
