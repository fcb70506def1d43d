"""Schedule-tracing hooks for the collectives.

The collectives in this package execute the *data path* of each
reduction scheme in-process, so there is no real transport whose
send/recv calls could be intercepted.  Instead the two message
primitives every scheme is written on (:func:`~repro.collectives.base
.send_chunks`, :func:`~repro.collectives.base.broadcast_chunks`) emit one
``send`` event where a payload is transmitted and one ``recv`` event
where it is consumed, per logical point-to-point message (broadcasts
emit one event pair per receiving rank), in schedule order even though
a call encodes and decodes all its payloads in one pass each; the
message that is sent also has its bytes booked, so
``ReduceStats.wire_bytes`` is the traced send bytes.

The hooks are no-ops unless a :class:`ScheduleTrace` has been installed
with :func:`capture`, so the data path pays one ``None`` check per
transfer when tracing is off.  The static checks over a captured trace
live in :mod:`repro.analysis.schedule`.

Nested collectives (hierarchical composes per-node SRA calls whose
internal rank ids are 0..k-1) translate their local ranks to global
ones by wrapping the inner call in :func:`rank_scope`.

Besides message endpoints the trace records **buffer accesses**
(:class:`BufferAccess`): reads, writes and in-place updates on
rank-local numpy views, plus uses of keyed compressor state (error-
feedback residual dicts, PowerSGD warm-start memory, partial-allreduce
carries).  Memory accesses carry the absolute byte span of the array so
aliasing is detected from addresses, not names; the trace keeps a
reference to every recorded array so spans stay valid for the capture's
lifetime.  The happens-before race detector over these records lives in
:mod:`repro.analysis.races`.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    from numpy import byte_bounds  # type: ignore[attr-defined, no-redef]

__all__ = [
    "TraceEvent",
    "BufferAccess",
    "OverlapEvent",
    "MessageMatch",
    "match_messages",
    "ScheduleTrace",
    "capture",
    "rank_scope",
    "phase_scope",
    "emit_send",
    "emit_recv",
    "emit_overlap",
    "translate_rank",
    "emit_buffer_read",
    "emit_buffer_write",
    "emit_buffer_update",
    "emit_state_use",
    "declare_buffer",
    "tracing_active",
    "timeline_position",
]


@dataclass(frozen=True)
class TraceEvent:
    """One logical point-to-point message endpoint.

    ``kind`` is ``"send"`` (emitted where the payload is encoded) or
    ``"recv"`` (emitted where it is decoded).  A send and its matching
    recv share ``(src, dst, step, nbytes, tag)``.

    ``blocking`` records the synchronization semantics the liveness
    certifier (:mod:`repro.analysis.liveness`) assumes: sends are eager
    (buffered, never block) while recvs block until a matching payload
    is available — the execution model of both the in-process data path
    and the rendezvous-free transports CGX targets.
    """

    kind: str
    step: int
    src: int
    dst: int
    nbytes: int
    tag: str
    blocking: bool = False

    def match_key(self) -> tuple:
        return (self.src, self.dst, self.step, self.nbytes, self.tag)


@dataclass(frozen=True)
class BufferAccess:
    """One access to rank-local memory or keyed compressor state.

    ``kind`` is ``"read"``, ``"write"`` (overwrite) or ``"update"``
    (in-place read-modify-write, e.g. ``+=`` accumulation).  ``space``
    selects the aliasing model: ``"mem"`` accesses alias when their
    absolute byte spans ``[start, end)`` overlap; ``"state"`` accesses
    (residual dicts, warm-start memory) alias when their ``buffer``
    labels are equal — dict entries have no stable address.
    """

    kind: str
    rank: int
    space: str     # "mem" | "state"
    buffer: str    # label: the emitting tag (mem) or the state key (state)
    start: int     # absolute byte span for mem accesses; 0 for state
    end: int
    tag: str

    @property
    def is_write(self) -> bool:
        return self.kind in ("write", "update")

    def aliases(self, other: "BufferAccess") -> bool:
        """Whether the two accesses can touch the same storage."""
        if self.space != other.space:
            return False
        if self.space == "state":
            return self.buffer == other.buffer
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class OverlapEvent:
    """One lifecycle event of a gradient in the overlapped engine mode.

    ``kind`` is one of ``grad_ready`` (a layer's backward finished and
    its gradient was emitted), ``reduce_enqueued`` (a fused bucket
    sealed — its last member gradient arrived), ``reduce_landed`` (the
    bucket's reduction completed and its outputs are installed) and
    ``grad_consumed`` (a consumer past the completion barrier read the
    reduced gradient).  ``grad_ready``/``grad_consumed`` carry a layer
    name; ``reduce_enqueued``/``reduce_landed`` carry a bucket name.

    ``t`` is the event's simulated time on the overlapped timeline and
    ``pos`` the length of the trace ``timeline`` at emission, so the
    overlap certifier can order these events against the send/recv and
    buffer-access records the bucket's data path produced.
    """

    kind: str
    step: int
    t: float
    layer: str = ""
    bucket: str = ""
    first_needed: int = -1
    pos: int = 0


@dataclass(frozen=True)
class MessageMatch:
    """How the sends and recvs of one event sequence pair up."""

    #: (send position, recv position) per matched message, in recv order;
    #: positions index the sequence handed to :func:`match_messages`
    pairs: tuple[tuple[int, int], ...]
    #: match key -> sends no recv consumes / recvs no send satisfies
    orphan_sends: Counter
    orphan_recvs: Counter
    #: recvs emitted ahead of a send that does exist for their key
    early_recvs: int


def match_messages(items: Sequence[object]) -> MessageMatch:
    """Pair sends with recvs by :meth:`TraceEvent.match_key`, FIFO.

    The one matcher behind SCH001-003, the happens-before message edges
    (RACE, and through it FLT/OVL) and DLV002.  ``items`` is a whole
    trace's events, one phase segment, or a ``timeline`` (non-event
    records are skipped, positions still index ``items``).  Replays the
    log: a recv consumes the earliest prior unmatched send with its
    key; one that finds none pairs with nothing — it is *early* if the
    key's sends cover its recvs overall, an orphan otherwise.
    """
    pending: dict[tuple, deque[int]] = {}
    sends: Counter = Counter()
    recvs: Counter = Counter()
    pairs: list[tuple[int, int]] = []
    unpaired: list[tuple] = []
    for pos, item in enumerate(items):
        if not isinstance(item, TraceEvent):
            continue
        key = item.match_key()
        if item.kind == "send":
            sends[key] += 1
            pending.setdefault(key, deque()).append(pos)
        else:
            recvs[key] += 1
            if pending.get(key):
                pairs.append((pending[key].popleft(), pos))
            else:
                unpaired.append(key)
    return MessageMatch(
        tuple(pairs), sends - recvs, recvs - sends,
        sum(1 for key in unpaired if sends[key] >= recvs[key]))


class ScheduleTrace:
    """An append-only log of events and accesses in emission order.

    ``events`` holds only the send/recv endpoints (the schedule
    verifier's input, unchanged); ``timeline`` interleaves them with
    :class:`BufferAccess` records in true emission order, which is what
    the happens-before analysis consumes.  ``overlap_events`` holds the
    overlapped engine mode's gradient-lifecycle records (kept out of
    ``timeline``: they are scheduling metadata, not rank operations).
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.accesses: list[BufferAccess] = []
        self.overlap_events: list[OverlapEvent] = []
        self.timeline: list[Union[TraceEvent, BufferAccess]] = []
        #: (rank, name, start, end) of each declared rank-local buffer
        self.declared: list[tuple[int, str, int, int]] = []
        #: (label, first event index, one-past-last event index) for each
        #: completed :func:`phase_scope` block, in completion order.
        #: Phases model the global barrier between sequential collective
        #: calls: the liveness certifier analyzes each span separately so
        #: tag reuse across calls cannot alias messages from different
        #: phases.
        self.phase_spans: list[tuple[str, int, int]] = []
        # recorded arrays are pinned so freed storage cannot be reused
        # by a later allocation at the same address mid-capture
        self._keepalive: list = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.timeline.append(event)

    def record_access(self, access: BufferAccess,
                      array: np.ndarray | None = None) -> None:
        self.accesses.append(access)
        self.timeline.append(access)
        if array is not None:
            self._keepalive.append(array)

    @property
    def sends(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "send"]

    @property
    def recvs(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "recv"]

    def send_bytes(self) -> int:
        """Total payload bytes across all send events."""
        return sum(e.nbytes for e in self.sends)

    def __len__(self) -> int:
        return len(self.events)


_active: ScheduleTrace | None = None
_rank_maps: list[Sequence[int]] = []


def tracing_active() -> bool:
    return _active is not None


def _translate(rank: int) -> int:
    """Map a collective-local rank through the nested scopes.

    Scopes compose innermost-first: each mapping resolves a local rank
    into its *enclosing* scope's numbering, so after the outermost
    mapping the result is a global rank.  Ranks are validated at every
    level — a negative rank must not silently wrap through python's
    negative indexing (it would translate to a legal-looking global
    rank and hide the schedule bug from SCH007), and an out-of-range
    rank gets a diagnosis instead of a bare ``IndexError`` from deep
    inside a nested collective.
    """
    rank = int(rank)
    for depth, mapping in enumerate(reversed(_rank_maps)):
        if not 0 <= rank < len(mapping):
            raise IndexError(
                f"rank {rank} out of range for rank_scope mapping of "
                f"{len(mapping)} rank(s) at nesting depth "
                f"{depth + 1} (innermost=1): {tuple(mapping)!r}")
        rank = int(mapping[rank])
    return rank


def translate_rank(rank: int) -> int:
    """Public rank translation through the active :func:`rank_scope` stack.

    The fault channel (:mod:`repro.faults.inject`) matches fault-plan
    routes on *global* ranks, so it must apply the same translation the
    trace events get — including inside nested collectives.
    """
    return _translate(rank)


def emit_send(src: int, dst: int, nbytes: int, step: int,
              tag: str = "") -> None:
    """Record that ``src`` transmits ``nbytes`` to ``dst`` at ``step``."""
    if _active is None:
        return
    _active.record(TraceEvent("send", step, _translate(src), _translate(dst),
                              int(nbytes), tag))


def emit_recv(dst: int, src: int, nbytes: int, step: int,
              tag: str = "") -> None:
    """Record that ``dst`` consumes the payload ``src`` sent at ``step``.

    Receives are the blocking endpoints of the execution model: the
    event carries ``blocking=True`` so the liveness certifier knows the
    receiver cannot proceed until the matching send exists.
    """
    if _active is None:
        return
    _active.record(TraceEvent("recv", step, _translate(src), _translate(dst),
                              int(nbytes), tag, blocking=True))


def _record_mem_access(kind: str, rank: int, array: np.ndarray,
                       tag: str) -> None:
    if _active is None:
        return
    arr = np.asarray(array)
    start, end = byte_bounds(arr)
    _active.record_access(
        BufferAccess(kind, _translate(rank), "mem", tag, int(start),
                     int(end), tag),
        array=arr,
    )


def emit_buffer_read(rank: int, array: np.ndarray, tag: str = "") -> None:
    """Record that ``rank`` reads ``array`` (e.g. to compress it)."""
    _record_mem_access("read", rank, array, tag)


def emit_buffer_write(rank: int, array: np.ndarray, tag: str = "") -> None:
    """Record that ``rank`` overwrites ``array`` (e.g. ``buf[:] = x``)."""
    _record_mem_access("write", rank, array, tag)


def emit_buffer_update(rank: int, array: np.ndarray, tag: str = "") -> None:
    """Record an in-place read-modify-write (e.g. ``buf += x``)."""
    _record_mem_access("update", rank, array, tag)


def emit_state_use(rank: int, key: object, tag: str = "") -> None:
    """Record that ``rank`` reads+writes keyed compressor state.

    Error-feedback residuals, PowerSGD warm-start memory and DGC
    accumulators are all read-modify-write per compress call, so every
    state use is an ``update``; two ranks sharing a key without an
    ordering message is a race (RACE003).
    """
    if _active is None:
        return
    _active.record_access(
        BufferAccess("update", _translate(rank), "state", repr(key), 0, 0, tag)
    )


def emit_overlap(kind: str, step: int, t: float, layer: str = "",
                 bucket: str = "", first_needed: int = -1) -> None:
    """Record one overlapped-mode gradient lifecycle event.

    The ``pos`` stamp (timeline length at emission) lets the overlap
    certifier bracket each bucket's data-path records — the send/recv
    and state accesses its reduction emitted land between the bucket's
    ``reduce_enqueued`` and ``reduce_landed`` positions.
    """
    if _active is None:
        return
    _active.overlap_events.append(OverlapEvent(
        kind, int(step), float(t), layer=layer, bucket=bucket,
        first_needed=int(first_needed), pos=len(_active.timeline)))


def timeline_position() -> int:
    """Current timeline length of the active trace (-1 when inactive)."""
    if _active is None:
        return -1
    return len(_active.timeline)


def declare_buffer(rank: int, array: np.ndarray, name: str = "") -> None:
    """Declare ``array`` as ``rank``'s private input/output buffer.

    Declarations feed the static aliasing check (RACE004): two ranks
    declaring overlapping storage share memory that the schedule treats
    as rank-local.
    """
    if _active is None:
        return
    arr = np.asarray(array)
    start, end = byte_bounds(arr)
    _active.declared.append((_translate(rank), name, int(start), int(end)))
    _active._keepalive.append(arr)


@contextmanager
def capture() -> Iterator[ScheduleTrace]:
    """Install a fresh trace; events emitted inside the block land in it."""
    global _active
    previous = _active
    trace = ScheduleTrace()
    _active = trace
    try:
        yield trace
    finally:
        _active = previous


@contextmanager
def rank_scope(mapping: Sequence[int]) -> Iterator[None]:
    """Translate local ranks 0..k-1 of a nested collective to global ids.

    ``mapping[i]`` is the rank of the nested call's rank ``i`` **in the
    enclosing scope** — a global rank only when this is the outermost
    scope.  Scopes nest and compose: the innermost mapping applies
    first, and its values are then resolved through every enclosing
    mapping in turn, so a collective nested two levels deep still emits
    correct global ranks.  No-op (beyond a list push) when tracing is
    inactive.
    """
    _rank_maps.append(mapping)
    try:
        yield
    finally:
        _rank_maps.pop()


@contextmanager
def phase_scope(label: str) -> Iterator[None]:
    """Mark the events emitted inside the block as one barrier phase.

    Sequential collective calls reuse steps and tags, so their events
    alias under :meth:`TraceEvent.match_key` even though a real engine
    separates the calls with a (conceptual) global barrier.  Wrapping
    each call in a phase scope records the span boundaries on the
    active trace; the liveness certifier then analyzes each span as an
    independent schedule.  Scopes may nest (an inner collective can
    label its own sub-phases); consumers that need barrier semantics
    keep only the outermost spans.  No-op when tracing is inactive.
    """
    trace = _active
    if trace is None:
        yield
        return
    start = len(trace.events)
    try:
        yield
    finally:
        trace.phase_spans.append((label, start, len(trace.events)))
