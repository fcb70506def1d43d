"""Scatter-Reduce-Allgather (SRA): CGX's default reduction scheme.

Two rounds (Section 3, "Reduction Schemes"): each of the N ranks owns
one contiguous chunk of the buffer.  Round 1 (scatter-reduce): every
rank compresses each foreign chunk and sends it to that chunk's owner,
which decompresses and accumulates.  Round 2 (allgather): each owner
compresses its aggregated chunk once and broadcasts it.

Every value therefore survives exactly **two** quantizations — one on
the worker gradient, one on the aggregate — which is the lowest error
of any O(d) scheme and the reason CGX defaults to SRA (Figure 10).
All ranks decompress identical broadcast payloads, so replicas stay
bit-identical.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.compression import Compressor

from .base import (Broadcast, Message, ReduceStats, broadcast_chunks,
                   chunk_bounds, open_reduction, send_chunks)
from .schedules import sra_schedule

__all__ = ["sra_allreduce"]


def sra_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` across ranks via scatter-reduce-allgather.

    Args:
        buffers: one gradient buffer per rank (equal sizes).
        compressor: applied to every transmitted chunk.
        rng: randomness for stochastic quantization.
        key: state key prefix for stateful compressors.

    Returns:
        (per-rank summed buffers, transfer/kernel statistics).
    """
    numel, world, stats = open_reduction("sra", buffers, key)
    (round_,) = sra_schedule(world).rounds
    bounds = chunk_bounds(numel, world)
    flats = [buf.ravel() for buf in buffers]
    per_rank_chunks = [[flat[a:b] for a, b in bounds] for flat in flats]

    # Round 1: scatter-reduce.  Owner o aggregates chunk o of every rank;
    # the w(w-1) foreign chunks are one encode pass and one decode pass,
    # owner-major (the order the quantizer draws its randomness), folded
    # in that order.
    aggregated = [per_rank_chunks[owner][owner].astype(np.float32)
                  for owner in range(world)]
    send_chunks(compressor, rng, stats, [
        [Message(m, per_rank_chunks[m.src][m.chunk], f"{key}/{m.tag}",
                 aggregated[m.dst], f"sr/agg/{m.dst}")]
        for m in sorted(round_.sends, key=attrgetter("dst"))])

    # Round 2: allgather.  Owner compresses its aggregate once; all ranks
    # (owner included) adopt the same decode.  A lone rank still encodes
    # and decodes its aggregate (the quantization is the scheme's), but
    # with nobody to send to it books no bytes.
    outputs = [np.empty(numel, dtype=np.float32) for _ in range(world)]
    out_chunks = [[out[a:b] for a, b in bounds] for out in outputs]
    broadcast_chunks(compressor, rng, stats, [
        Broadcast(c, aggregated[c.root], f"{key}/{c.tag}",
                  [(out_chunks[rank][c.chunk], rank) for rank in range(world)],
                  f"ag/out/{c.chunk}") for c in round_.casts])
    stats.max_recompressions = 2
    shaped = [out.reshape(buffers[0].shape) for out in outputs]
    return shaped, stats
