"""Ring-Allreduce with per-hop compression.

The bandwidth-optimal dense scheme (NCCL/Gloo default).  With a
non-associative compressor each reduce-scatter hop must decompress,
accumulate, and *re-compress*, so a value absorbed at the first hop is
re-quantized N-1 times before the allgather phase — the error
amplification that makes quantized Ring inferior to SRA (Figure 10).
The allgather phase forwards the owner's final payload verbatim (no
further error), so all ranks decode identical results.
"""

from __future__ import annotations

import numpy as np

from repro.compression import Compressor

from .base import (Broadcast, Message, ReduceStats, broadcast_chunks,
                   check_buffers, send_chunks, split_chunks, store_chunk)
from .schedules import ring_schedule
from .trace import declare_buffer

__all__ = ["ring_allreduce"]


def ring_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` across ranks via a compression-aware ring."""
    numel = check_buffers(buffers)
    world = len(buffers)
    stats = ReduceStats("ring", world, numel)
    if world == 1:
        return [buffers[0].astype(np.float32).copy()], stats
    for rank, buf in enumerate(buffers):
        declare_buffer(rank, buf, name=f"{key}/input")

    # working copies, chunked; chunk c starts its journey at rank c
    work = [
        [chunk.astype(np.float32).copy() for chunk in split_chunks(buf, world)]
        for buf in buffers
    ]

    # Phase 1: reduce-scatter, one simultaneous round a step.
    rounds = ring_schedule(world).rounds
    for round_ in rounds[:world - 1]:
        send_chunks(compressor, rng, stats, [[
            Message(m, work[m.src][m.chunk], f"{key}/{m.tag}",
                    work[m.dst][m.chunk], f"rs/acc/{m.step}/{m.dst}")
            for m in round_.sends]])

    # After N-1 steps, rank r holds the full sum of chunk (r + 1) mod N.
    # Phase 2: allgather.  Each owner compresses its final chunk once and
    # the payload hops the ring verbatim: rank -> rank+1 -> ... (N-1 hops).
    owners, *hops = rounds[world - 1:]
    decoded = broadcast_chunks(compressor, rng, stats, [
        Broadcast(c._replace(edges=[(m.src, m.dst, m.step) for hop in hops
                                    for m in hop.sends if m.chunk == c.chunk]),
                  work[c.root][c.chunk], f"{key}/ag/{c.root}")
        for c in owners.casts])
    final_payloads = {c.chunk: value for c, value in zip(owners.casts, decoded)}

    outputs = []
    for rank in range(world):
        out = np.empty(numel, dtype=np.float32)
        for chunk_id, view in enumerate(split_chunks(out, world)):
            store_chunk(view, final_payloads[chunk_id], rank=rank,
                        tag=f"ag/out/{chunk_id}")
        outputs.append(out.reshape(buffers[0].shape))
    stats.max_recompressions = world  # N-1 reduce hops + 1 allgather encode
    return outputs, stats
