"""The execution model behind the liveness certifier.

The data-path collectives execute in-process and therefore in one fixed
order, but the schedules they emit will eventually run on real
transports where rank interleaving is up to the scheduler.  This module
abstracts a captured :class:`~repro.collectives.trace.ScheduleTrace`
into per-rank **programs** of eager (buffered, non-blocking) sends and
blocking receives, and executes them once, with :func:`fair_schedule`.

One execution decides every interleaving.  Eager-send / blocking-recv
message passing is *monotone*: firing an operation never disables
another, because sends only add messages and two receives never compete
for one message (a match key names its destination rank, and only that
rank consumes it).  So every maximal execution of a phase ends in the
same state — the same stuck ranks on the same blocked receives, and the
same residue of unconsumed messages (Kahn's determinism result).  The
round-robin run reaches that state and, on the way, measures for every
blocked receive how many full scheduler rounds pass before its matching
send arrives; the bounded-wait rule (DLV005) holds this under
``max(16, 4 * world, 2 * longest_program + world)`` — see
:meth:`FairRunResult.bound`.

The findings layer over this model lives in
:mod:`repro.analysis.liveness`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.collectives.trace import ScheduleTrace, TraceEvent

__all__ = ["Op", "FairRunResult", "build_programs", "phase_segments",
           "fair_schedule"]

#: a match key: (src, dst, step, nbytes, tag)
Key = tuple


@dataclass(frozen=True)
class Op:
    """One abstracted schedule operation owned by a single rank.

    A ``send`` is eager: it deposits its message and never blocks.  A
    ``recv`` blocks until a message with its exact match key is
    pending.  ``key`` is the :meth:`TraceEvent.match_key` tuple
    ``(src, dst, step, nbytes, tag)``.
    """

    kind: str
    key: Key

    @property
    def src(self) -> int:
        return int(self.key[0])

    @property
    def dst(self) -> int:
        return int(self.key[1])

    @property
    def tag(self) -> str:
        return str(self.key[4])

    def describe(self) -> str:
        src, dst, step, nbytes, tag = self.key
        return (f"{self.kind} {src}->{dst} step {step} "
                f"(tag {tag!r}, {nbytes}B)")


def build_programs(events: Sequence[TraceEvent]
                   ) -> dict[int, tuple[Op, ...]]:
    """Per-rank programs, in emission order, from a trace segment.

    A send belongs to its source rank, a recv to its destination; the
    order events were emitted is the program order of each rank (the
    data path executes each rank's operations in exactly that order).
    """
    programs: dict[int, list[Op]] = {}
    for event in events:
        owner = event.src if event.kind == "send" else event.dst
        programs.setdefault(owner, []).append(Op(event.kind,
                                                 event.match_key()))
    return {rank: tuple(ops) for rank, ops in programs.items()}


def phase_segments(trace: ScheduleTrace
                   ) -> list[tuple[str, list[TraceEvent]]]:
    """Split a trace into barrier-separated segments of events.

    Only the *outermost* :func:`~repro.collectives.trace.phase_scope`
    spans count (an inner collective may label its own sub-phases);
    events not covered by any span become anonymous segments so nothing
    is dropped.  With no phase marks the whole trace is one segment.
    """
    spans = sorted(trace.phase_spans, key=lambda s: (s[1], -(s[2] - s[1])))
    top: list[tuple[str, int, int]] = []
    for label, start, stop in spans:
        if any(t_start <= start and stop <= t_stop
               for _, t_start, t_stop in top):
            continue  # nested inside an already-kept span
        top.append((label, start, stop))
    segments: list[tuple[str, list[TraceEvent]]] = []
    cursor = 0
    for label, start, stop in top:
        if cursor < start:
            segments.append((f"events[{cursor}:{start}]",
                             trace.events[cursor:start]))
        segments.append((label, trace.events[start:stop]))
        cursor = max(cursor, stop)
    if cursor < len(trace.events):
        segments.append((f"events[{cursor}:{len(trace.events)}]",
                         trace.events[cursor:]))
    return [(label, events) for label, events in segments if events]


# -- the one execution --------------------------------------------------------

@dataclass
class FairRunResult:
    """Terminal state of the round-robin run over one segment."""

    max_wait: int                    # worst blocked-recv wait, in rounds
    longest: int                     # longest per-rank program, in ops
    #: unexecuted ops per stuck rank, starting with its blocked recv
    remaining: dict[int, tuple[Op, ...]]
    #: messages deposited but never consumed (orphan sends)
    residue: Counter

    @property
    def completed(self) -> bool:
        return not self.remaining

    @property
    def blocked(self) -> dict[int, Op]:
        """Stuck rank -> the recv it waits on forever."""
        return {rank: ops[0] for rank, ops in self.remaining.items()}

    def bound(self, world: int) -> int:
        """The DLV005 wait budget for a ``world``-rank schedule.

        A blocked recv legitimately waits while its sender works
        through the sends program order places ahead of it — a wait
        proportional to the longest per-rank program.  What the rule
        must catch is a wait *beyond* what any one rank's program can
        explain: serialization chains across several ranks (convoys),
        which grow with the world size instead.  Hence
        ``max(16, 4 * world, 2 * longest + world)``; the battery's
        worst observed wait/longest ratio is 1.5.
        """
        return max(16, 4 * world, 2 * self.longest + world)


def fair_schedule(programs: Mapping[int, Sequence[Op]]) -> FairRunResult:
    """Round-robin execution: one operation per unblocked rank per round.

    Runs until a whole round makes no progress — every rank finished,
    or every unfinished rank blocked on a receive whose message never
    comes — and returns that terminal state together with the longest
    any receive waited for its matching send.
    """
    ranks = sorted(programs)
    pcs = {rank: 0 for rank in ranks}
    waits = {rank: 0 for rank in ranks}
    mailbox: Counter = Counter()
    max_wait = 0
    progressed = True
    while progressed:
        progressed = False
        for rank in ranks:
            ops = programs[rank]
            if pcs[rank] >= len(ops):
                continue
            op = ops[pcs[rank]]
            if op.kind == "send":
                mailbox[op.key] += 1
            elif mailbox[op.key] > 0:
                mailbox[op.key] -= 1
            else:
                waits[rank] += 1
                max_wait = max(max_wait, waits[rank])
                continue
            pcs[rank] += 1
            waits[rank] = 0
            progressed = True
    return FairRunResult(
        max_wait=max_wait,
        longest=max((len(programs[rank]) for rank in ranks), default=0),
        remaining={rank: tuple(programs[rank][pcs[rank]:]) for rank in ranks
                   if pcs[rank] < len(programs[rank])},
        residue=+mailbox)
