"""Declared schedules: every reduction scheme's rounds, written once.

A reduction scheme is who sends which chunk to whom, in which order, and
who re-quantizes it on the way.  Each function here states that as data:
a :class:`Schedule` of rounds over schedule-local ranks ``0..world-1``,
built from the world size and, where the scheme has one, a placement
(hierarchical: a node per rank; quorum: the ordered members and
laggards).  Chunk ``c`` is ``chunk_bounds(numel, schedule.parts)[c]``,
so one schedule serves every buffer size and is built once per
(scheme, world, placement).

Two interpreters read a schedule:

* the data path (``sra.py`` ... ``partial.py``) binds each message to
  numpy views and moves it through :func:`~.base.send_chunks` /
  :func:`~.base.broadcast_chunks` under the compressor state key
  ``<call key>/<tag>`` (Ring's allgather keys a cast ``ag/<root>`` and
  the allgather scheme ``<root>``); a payload that is forwarded (Ring's
  allgather, Tree's broadcast) is one fan-out whose edges are its
  forwarding sends;
* the timed path (:class:`~.timing._Scheduler`) prices the same rounds
  on a :class:`~repro.cluster.network.Network`, in the issue order the
  round's discipline states — a fact of the scheme, not an option:

``EXCHANGE`` (SRA, Ring)
    every send is posted in listed order (sender-major), each encode
    behind its sender's previous one; then each receiver in rank order
    decodes its arrivals in arrival order, behind its own clock.  In
    SRA every receiver also roots the cast of the chunk it reduced
    (casts listed by root) and fans it out as soon as it has landed.
    SRA's data path encodes its sends owner-major instead: that is the
    order its quantizer draws randomness.
``CHAIN`` (Tree, PS, allgather, the hierarchical and late broadcasts)
    sends go one at a time, each decoded behind its receiver's clock (the
    PS root decodes in sender order); then every root encodes (a rank
    roots at most one cast a round), and each cast's receivers, one at a
    time, decode on arrival.

A ``forward`` round's sends pass on a payload their sender already holds
(no encode).  Kernels follow one rule: a sender encodes what it sends
fresh, a cast's root encodes once whether or not anyone receives it, and
every receiver decodes what it receives — where the data path decodes a
fan-out once for all.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

__all__ = ["Send", "Cast", "Round", "Stage", "Schedule", "FLAT_SCHEDULES",
           "sra_schedule", "ring_schedule", "tree_schedule", "ps_schedule",
           "allgather_schedule", "hier_schedule", "partial_schedule"]

EXCHANGE, CHAIN = "exchange", "chain"


class Send(NamedTuple):
    """One point-to-point message of chunk ``chunk``."""

    src: int
    dst: int
    chunk: int
    step: int
    tag: str


class Cast(NamedTuple):
    """``root`` encodes chunk ``chunk`` once and sends the payload along
    ``edges`` (``(root, dst, step)``); every rank adopts its decode."""

    root: int
    chunk: int
    edges: tuple[tuple[int, int, int], ...]
    tag: str


class Round(NamedTuple):
    """Sends, then casts, under one discipline (see the module doc)."""

    order: str
    sends: tuple[Send, ...] = ()
    casts: tuple[Cast, ...] = ()
    forward: bool = False


class Stage(NamedTuple):
    """A nested reduction: ``schedule``'s rank ``i`` is ``members[i]``,
    and ``label`` names its phase and its compressor-state prefix."""

    members: tuple[int, ...]
    schedule: "Schedule"
    label: str


class Schedule(NamedTuple):
    """A scheme's rounds over a buffer cut into ``parts`` chunks."""

    parts: int
    rounds: tuple[Union[Round, Stage], ...]


def _cast(root: int, chunk: int, receivers, step: int, tag: str) -> Cast:
    return Cast(root, chunk, tuple((root, dst, step) for dst in receivers),
                tag)


@lru_cache(maxsize=None)
def sra_schedule(world: int) -> Schedule:
    """Owner ``o`` reduces chunk ``o`` of every rank, then broadcasts it."""
    sends = tuple(Send(rank, owner, owner, 0, f"sr/{owner}/{rank}")
                  for rank in range(world) for owner in range(world)
                  if rank != owner)
    casts = tuple(_cast(owner, owner,
                        [dst for dst in range(world) if dst != owner], 1,
                        f"ag/{owner}") for owner in range(world))
    return Schedule(world, (Round(EXCHANGE, sends, casts),))


@lru_cache(maxsize=None)
def ring_schedule(world: int) -> Schedule:
    """``world - 1`` reduce-scatter steps (rank ``r`` passes chunk
    ``r - step`` right); then rank ``r`` encodes its reduced chunk
    ``r + 1``, which hops on right for ``world - 1`` more steps."""
    return Schedule(world, (
        *(Round(EXCHANGE, tuple(
            Send(rank, (rank + 1) % world, (rank - step) % world, step,
                 f"rs/{step}/{rank}") for rank in range(world)))
          for step in range(world - 1)),
        Round(CHAIN, casts=tuple(
            Cast(rank, (rank + 1) % world, (), f"ag/{(rank + 1) % world}")
            for rank in range(world))),
        *(Round(EXCHANGE, tuple(
            Send(rank, (rank + 1) % world, (rank + 1 - hop) % world,
                 world - 1 + hop, f"ag/{(rank + 1 - hop) % world}")
            for rank in range(world)), forward=True)
          for hop in range(world - 1))))


@lru_cache(maxsize=None)
def tree_schedule(world: int) -> Schedule:
    """A binary tree: at stride ``s``, rank ``r`` (a multiple of ``2s``)
    absorbs ``r + s``; then the root encodes the sum and it is forwarded
    down the same edges, widest stride first."""
    strides = [1 << k for k in range((world - 1).bit_length())]
    levels = [range(0, world - stride, 2 * stride) for stride in strides]
    return Schedule(1, (
        *(Round(CHAIN, tuple(
            Send(parent + stride, parent, 0, k,
                 f"up/{stride}/{parent + stride}") for parent in level))
          for k, (stride, level) in enumerate(zip(strides, levels))),
        Round(CHAIN, casts=(Cast(0, 0, (), "down"),)),
        Round(CHAIN, tuple(
            Send(parent, parent + strides[k], 0, 2 * len(levels) - 1 - k,
                 "down") for k in reversed(range(len(levels)))
            for parent in levels[k]),
            forward=True)))


@lru_cache(maxsize=None)
def allgather_schedule(world: int) -> Schedule:
    """Every rank broadcasts its whole gradient to every other rank."""
    return Schedule(1, (Round(CHAIN, casts=tuple(
        _cast(rank, 0, [dst for dst in range(world) if dst != rank], 0,
              f"bcast/{rank}") for rank in range(world))),))


@lru_cache(maxsize=None)
def ps_schedule(world: int) -> Schedule:
    """Every worker pushes to rank 0, which broadcasts the sum."""
    return Schedule(1, (Round(
        CHAIN, tuple(Send(rank, 0, 0, 0, f"push/{rank}")
                     for rank in range(1, world)),
        (_cast(0, 0, range(1, world), 1, "bcast"),)),))


@lru_cache(maxsize=None)
def hier_schedule(node_of: tuple[int, ...]) -> Schedule:
    """SRA inside each node, SRA among the node leaders (each node's
    first rank), then one broadcast per node from its leader.  One node
    is plain SRA."""
    nodes = sorted(set(node_of))
    if len(nodes) == 1:
        return sra_schedule(len(node_of))
    members = [tuple(r for r, n in enumerate(node_of) if n == node)
               for node in nodes]
    return Schedule(1, (
        *(Stage(local, sra_schedule(len(local)), f"intra{node}")
          for node, local in zip(nodes, members)),
        Stage(tuple(local[0] for local in members), sra_schedule(len(nodes)),
              "inter"),
        *(Round(CHAIN, casts=(_cast(local[0], 0, local[1:], 2, "bcast"),))
          for local in members)))


@lru_cache(maxsize=None)
def partial_schedule(members: tuple[int, ...],
                     laggards: tuple[int, ...]) -> Schedule:
    """SRA among the quorum ``members``; the first member sends the
    result to the ``laggards``, in order."""
    return Schedule(1, (
        Stage(members, sra_schedule(len(members)), "quorum"),
        Round(CHAIN, casts=(_cast(members[0], 0, laggards, 2, "late"),))))


#: the schemes whose schedule depends on the world size alone
FLAT_SCHEDULES = {"sra": sra_schedule, "ring": ring_schedule,
                  "tree": tree_schedule, "allgather": allgather_schedule,
                  "ps": ps_schedule}
