"""Compression-aware collectives: data paths and timed schedules."""

from .allgather import allgather_allreduce
from .base import (ReduceStats, accumulate_chunk, check_buffers, chunk_bounds,
                   compress_chunk, decompress_chunk, split_chunks, store_chunk)
from .hierarchical import hierarchical_allreduce
from .parameter_server import ps_allreduce
from .partial import PartialAllreduce
from .ring import ring_allreduce
from .sra import sra_allreduce
from .timing import (SCHEMES, CollectiveTiming, OverlapStepTiming,
                     TimedBucket, drain_channel, time_allreduce,
                     time_overlapped_step, time_partial_allreduce)
from .trace import (BufferAccess, ScheduleTrace, TraceEvent, capture,
                    declare_buffer, emit_buffer_read, emit_buffer_update,
                    emit_buffer_write, emit_state_use, rank_scope)
from .tree import tree_allreduce

#: scheme name -> data-path implementation
ALGORITHMS = {
    "sra": sra_allreduce,
    "ring": ring_allreduce,
    "tree": tree_allreduce,
    "allgather": allgather_allreduce,
    "ps": ps_allreduce,
    "hier": hierarchical_allreduce,
}


def allreduce(scheme, buffers, compressor, rng, key="", node_of=None):
    """Dispatch to a data-path collective by scheme name.

    ``node_of`` (node index per rank) only applies to the hierarchical
    scheme; other schemes ignore topology.
    """
    if scheme not in ALGORITHMS:
        raise KeyError(f"unknown scheme {scheme!r}; choose from {sorted(ALGORITHMS)}")
    if scheme == "hier":
        return ALGORITHMS[scheme](buffers, compressor, rng, key=key,
                                  node_of=node_of)
    return ALGORITHMS[scheme](buffers, compressor, rng, key=key)


__all__ = [
    "ReduceStats", "chunk_bounds", "check_buffers", "split_chunks",
    "compress_chunk", "decompress_chunk", "accumulate_chunk", "store_chunk",
    "sra_allreduce", "ring_allreduce", "tree_allreduce",
    "allgather_allreduce", "ps_allreduce", "hierarchical_allreduce",
    "ALGORITHMS", "allreduce",
    "SCHEMES", "CollectiveTiming", "time_allreduce",
    "time_partial_allreduce", "PartialAllreduce",
    "TimedBucket", "OverlapStepTiming", "time_overlapped_step",
    "drain_channel",
    "ScheduleTrace", "TraceEvent", "BufferAccess", "capture", "rank_scope",
    "declare_buffer", "emit_buffer_read", "emit_buffer_write",
    "emit_buffer_update", "emit_state_use",
]
