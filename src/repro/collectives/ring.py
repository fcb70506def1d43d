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

    # Phase 1: reduce-scatter.  In step s, rank r sends chunk (r - s) mod N
    # to rank r+1, which accumulates it; a step is one simultaneous round.
    for step in range(world - 1):
        round_ = []
        for rank in range(world):
            dst, chunk = (rank + 1) % world, (rank - step) % world
            round_.append(Message(work[rank][chunk], f"{key}/rs/{step}/{rank}",
                                  rank, dst, step, f"rs/{step}/{rank}",
                                  work[dst][chunk], f"rs/acc/{step}/{dst}"))
        send_chunks(compressor, rng, stats, [round_])

    # After N-1 steps, rank r holds the full sum of chunk (r + 1) mod N.
    # Phase 2: allgather.  Each owner compresses its final chunk once and
    # the payload hops the ring verbatim: rank -> rank+1 -> ... (N-1 hops).
    decoded = broadcast_chunks(compressor, rng, stats, [
        Broadcast(work[rank][(rank + 1) % world], f"{key}/ag/{rank}", rank,
                  [((rank + hop) % world, (rank + hop + 1) % world,
                    world - 1 + hop) for hop in range(world - 1)],
                  f"ag/{(rank + 1) % world}")
        for rank in range(world)])
    final_payloads = {(rank + 1) % world: value
                      for rank, value in enumerate(decoded)}

    outputs = []
    for rank in range(world):
        out = np.empty(numel, dtype=np.float32)
        for chunk_id, view in enumerate(split_chunks(out, world)):
            store_chunk(view, final_payloads[chunk_id], rank=rank,
                        tag=f"ag/out/{chunk_id}")
        outputs.append(out.reshape(buffers[0].shape))
    stats.max_recompressions = world  # N-1 reduce hops + 1 allgather encode
    return outputs, stats
