"""Compression-aware collectives: data paths and timed schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.compression import Compressor

from .allgather import allgather_allreduce
from .base import (ReduceStats, accumulate_chunk, check_buffers, chunk_bounds,
                   split_chunks, store_chunk)
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
ALGORITHMS: dict[str, Callable[..., tuple[list[np.ndarray], ReduceStats]]] = {
    "sra": sra_allreduce,
    "ring": ring_allreduce,
    "tree": tree_allreduce,
    "allgather": allgather_allreduce,
    "ps": ps_allreduce,
    "hier": hierarchical_allreduce,
}


def allreduce(scheme: str, buffers: list[np.ndarray], compressor: Compressor,
              rng: np.random.Generator, key: str = "",
              node_of: list[int] | None = None,
              ) -> tuple[list[np.ndarray], ReduceStats]:
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


# -- the certifier's cell table ----------------------------------------------

@dataclass(frozen=True)
class SchemeCell:
    """One (scheme, world, placement/quorum) row every battery replays.

    ``node_of`` only means something to ``hier`` and ``participants``
    only to the quorum reducer (``partial``); ``None`` is the callee's
    own default — one node, full participation.
    """

    scheme: str
    world: int
    node_of: tuple[int, ...] | None = None
    participants: tuple[int, ...] | None = None


#: the table's scheme axis: the registered data paths, then the quorum reducer
CELL_SCHEMES = (*sorted(ALGORITHMS), "partial")

#: explicit rows, which the batteries that want them add by name: a
#: quorum that is not the default prefix (late delivery to interleaved
#: laggards), and hier on single-member nodes (two one-GPU machines:
#: the intra-node reduction and the node broadcast have nobody to send
#: to) — the overlap battery's small-world rows
EXPLICIT_CELLS = (SchemeCell("partial", 5, participants=(0, 2, 4)),)
SINGLE_MEMBER_CELLS = {
    (cell.scheme, cell.world): cell
    for cell in (SchemeCell("hier", 2, node_of=(0, 1)),
                 SchemeCell("hier", 3, node_of=(0, 0, 1)))}


def node_placement(world: int) -> tuple[int, ...]:
    """Two balanced nodes when each holds >= 2 ranks, else one node.

    A single-member node degenerates hierarchical reduction (it pays
    the hierarchy's five quantizations for no intra-node traffic), so
    worlds below four keep every rank on one node — the scheme's
    plain-SRA fallback.  ``SINGLE_MEMBER_CELLS`` are the degenerate rows.
    """
    half = world // 2
    return tuple(int(half >= 2 and rank >= half) for rank in range(world))


def default_quorum(world: int) -> tuple[int, ...]:
    """A strict quorum: about 3/4 of the ranks, always leaving a laggard."""
    return tuple(range(max(1, min(world - 1, math.ceil(0.75 * world)))))


def scheme_cell(scheme: str, world: int) -> SchemeCell:
    """The table's ``(scheme, world)`` row: the default placement for
    ``hier``, the default quorum for ``partial``."""
    return SchemeCell(scheme, world,
                      node_placement(world) if scheme == "hier" else None,
                      default_quorum(world) if scheme == "partial" else None)


def scheme_cells(worlds: Sequence[int],
                 schemes: Sequence[str] = CELL_SCHEMES) -> list[SchemeCell]:
    """The cell table: every scheme x world row, scheme-major."""
    return [scheme_cell(scheme, world)
            for scheme in schemes for world in worlds]


def run_cell(cell: SchemeCell, buffers: list[np.ndarray],
             compressor: Compressor, rng: np.random.Generator, key: str = "",
             reducer: PartialAllreduce | None = None,
             node_of: Sequence[int] | None = None,
             participants: Sequence[int] | None = None,
             ) -> tuple[list[np.ndarray], ReduceStats]:
    """Run ``cell``'s scheme once on ``buffers``: ``(outputs, ReduceStats)``.

    The one invoker behind every battery.  ``node_of`` / ``participants``
    override the row's own (a demoted phase reduces over survivors);
    a caller that needs carries to outlive the call (drain phases)
    passes the :class:`PartialAllreduce` it keeps as ``reducer``.
    """
    if cell.scheme == "partial":
        quorum = participants or cell.participants or range(len(buffers))
        reducer = reducer or PartialAllreduce(len(buffers))
        return reducer.reduce(buffers, list(quorum), compressor, rng, key=key)
    placement = node_of or cell.node_of
    return allreduce(cell.scheme, buffers, compressor, rng, key=key,
                     node_of=list(placement) if placement else None)


__all__ = [
    "ReduceStats", "chunk_bounds", "check_buffers", "split_chunks",
    "accumulate_chunk", "store_chunk",
    "sra_allreduce", "ring_allreduce", "tree_allreduce",
    "allgather_allreduce", "ps_allreduce", "hierarchical_allreduce",
    "ALGORITHMS", "allreduce",
    "SchemeCell", "CELL_SCHEMES", "EXPLICIT_CELLS", "SINGLE_MEMBER_CELLS",
    "node_placement",
    "default_quorum", "scheme_cell", "scheme_cells", "run_cell",
    "SCHEMES", "CollectiveTiming", "time_allreduce",
    "time_partial_allreduce", "PartialAllreduce",
    "TimedBucket", "OverlapStepTiming", "time_overlapped_step",
    "drain_channel",
    "ScheduleTrace", "TraceEvent", "BufferAccess", "capture", "rank_scope",
    "declare_buffer", "emit_buffer_read", "emit_buffer_write",
    "emit_buffer_update", "emit_state_use",
]
