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
    if node_of is None:
        node_of = [0] * world
    if len(node_of) != world:
        raise ValueError("node_of must give a node per rank")
    nodes = sorted(set(node_of))
    if len(nodes) == 1:
        return sra_allreduce(buffers, compressor, rng, key=key)

    stats = ReduceStats("hier", world, numel)
    members = {node: [r for r in range(world) if node_of[r] == node]
               for node in nodes}

    # Stage 1: intra-node allreduce (leaders end up with the node sum).
    node_sum: dict[int, np.ndarray] = {}
    for node in nodes:
        local = [buffers[r] for r in members[node]]
        with phase_scope(f"hier/intra{node}"), rank_scope(members[node]):
            reduced, sub = sra_allreduce(local, compressor, rng,
                                         key=f"{key}/intra{node}")
        stats.absorb(sub)
        node_sum[node] = reduced[0]

    # Stage 2: inter-node allreduce among the leaders.
    leaders = [members[node][0] for node in nodes]
    leader_buffers = [node_sum[node] for node in nodes]
    with phase_scope("hier/inter"), rank_scope(leaders):
        reduced, sub = sra_allreduce(leader_buffers, compressor, rng,
                                     key=f"{key}/inter")
    stats.absorb(sub)

    # Stage 3: leaders broadcast the global sum to their local peers.
    # The payload is encoded once and forwarded verbatim (equivalently:
    # leaders hold identical inputs and share the quantization seed), so
    # every rank on every node decodes bit-identical values — replicas
    # must not diverge across nodes.
    with phase_scope("hier/bcast"):
        decoded = broadcast_chunk(
            compressor, rng, stats, reduced[0].ravel(), f"{key}/bcast",
            leaders[0], [(members[node][0], peer, 2) for node in nodes
                         for peer in members[node][1:]],
            "bcast").reshape(buffers[0].shape)
    outputs = [decoded.copy() for _ in range(world)]
    stats.max_recompressions = 5
    return outputs, stats
