"""Hierarchical (intra-node + inter-node) allreduce.

Section 4, "Backend Details": CGX supports heterogeneous communication —
intra-node reduction over SHM-class transports, inter-node over
NCCL/MPI.  The composition is the standard three-stage hierarchy:

1. allreduce within each node (SRA over the fast local links);
2. allreduce of the node leaders' aggregates across nodes;
3. leaders broadcast the global result to their local peers.

Each value passes through at most five quantizations (two intra, two
inter, one broadcast), more than flat SRA's two — the price paid for
keeping inter-node traffic proportional to one gradient per node rather
than one per GPU, which is what makes compressed multi-node training
viable on gigabit links (Table 5).
"""

from __future__ import annotations

import numpy as np

from repro.compression import Compressor

from .base import ReduceStats, broadcast_chunk, check_buffers
from .schedules import Cast, Stage, hier_schedule
from .sra import sra_allreduce
from .trace import phase_scope, rank_scope

__all__ = ["hierarchical_allreduce"]


def hierarchical_allreduce(
    buffers: list[np.ndarray],
    compressor: Compressor,
    rng: np.random.Generator,
    key: str = "",
    node_of: list[int] | None = None,
) -> tuple[list[np.ndarray], ReduceStats]:
    """Sum ``buffers`` with intra-node then inter-node reduction.

    Args:
        node_of: node index per rank; ``None`` (or one node) degrades to
            plain SRA.
    """
    numel = check_buffers(buffers)
    world = len(buffers)
    if node_of is not None and len(node_of) != world:
        raise ValueError("node_of must give a node per rank")
    if node_of is None or len(set(node_of)) == 1:
        return sra_allreduce(buffers, compressor, rng, key=key)
    schedule = hier_schedule(tuple(node_of))

    # Stage 1: intra-node allreduce, leaving each node's sum with its
    # leader; stage 2: inter-node allreduce among the leaders.
    stats = ReduceStats("hier", world, numel)
    held = list(buffers)
    for stage in (part for part in schedule.rounds
                  if isinstance(part, Stage)):
        with phase_scope(f"hier/{stage.label}"), rank_scope(stage.members):
            reduced, sub = sra_allreduce([held[r] for r in stage.members],
                                         compressor, rng,
                                         key=f"{key}/{stage.label}")
        stats.absorb(sub)
        held[stage.members[0]] = reduced[0]

    # Stage 3: leaders broadcast the global sum to their local peers.
    # The payload is encoded once and forwarded verbatim (equivalently:
    # leaders hold identical inputs and share the quantization seed), so
    # every rank on every node decodes bit-identical values — replicas
    # must not diverge across nodes.
    casts = [part.casts[0] for part in schedule.rounds
             if not isinstance(part, Stage)]
    root = casts[0].root
    with phase_scope("hier/bcast"):
        decoded = broadcast_chunk(
            compressor, rng, stats,
            Cast(root, 0, sum((cast.edges for cast in casts), ()), "bcast"),
            held[root].ravel(), f"{key}/bcast").reshape(buffers[0].shape)
    outputs = [decoded.copy() for _ in range(world)]
    stats.max_recompressions = 5
    return outputs, stats
