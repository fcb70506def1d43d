"""Happens-before race detector over captured schedules (RACE001..004).

The collectives execute every rank's data path in one process, so a
schedule that *would* race on real transports — two ranks writing one
buffer with no message ordering them — still produces deterministic
results here and passes every numeric test.  From a
:class:`~repro.collectives.trace.ScheduleTrace` timeline this pass
builds the happens-before order — program order per rank, plus a
matched send before its recv (the pairs of
:func:`~repro.collectives.trace.match_messages`); emission order
between ranks is *not* an ordering — and flags concurrent accesses to
aliased storage (byte spans for memory, labels for keyed state).
Long form: ``docs/analysis.md`` pillar 4.  The rules:

"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Union

from repro.collectives.trace import (BufferAccess, ScheduleTrace, TraceEvent,
                                     match_messages)
from repro.compression import CompressionSpec

from .findings import CellFindings, Finding, rule_table, sort_findings
from .schedule import default_cases, trace_case, trace_collective

__all__ = ["RACE_RULES", "analyze_trace", "verify_races",
           "analyze_callable"]

RACE_RULES = {
    "RACE001": "unsynchronized write/write on aliased buffers",
    "RACE002": "unsynchronized read/write on aliased buffers",
    "RACE003": "keyed compressor state shared across ranks unordered",
    "RACE004": "buffers declared rank-local overlap in memory",
}
__doc__ = rule_table(__doc__, RACE_RULES)


def _node_rank(item: Union[TraceEvent, BufferAccess]) -> int:
    if isinstance(item, TraceEvent):
        return item.src if item.kind == "send" else item.dst
    return item.rank


def _ancestor_sets(timeline: list) -> list[int]:
    """Bitset of happens-before ancestors per timeline position.

    ``anc[i]`` has bit ``p`` set iff node ``p`` happens-before node
    ``i``.  Built in one forward pass: program-order edge from the
    rank's previous node, message edge from the matched send.
    """
    sender_of = {recv: send for send, recv in match_messages(timeline).pairs}
    anc = [0] * len(timeline)
    last_of_rank: dict[int, int] = {}
    for i, item in enumerate(timeline):
        mask = 0
        rank = _node_rank(item)
        for prev in (last_of_rank.get(rank), sender_of.get(i)):
            if prev is not None:
                mask |= anc[prev] | (1 << prev)
        anc[i] = mask
        last_of_rank[rank] = i
    return anc


def _aliasing_pairs(timeline: list) -> Iterator[tuple[int, int]]:
    """Timeline positions ``(i, j)``, ``i < j``, of every pair of buffer
    accesses that can touch the same storage (:meth:`BufferAccess.aliases`).

    Only aliasing pairs are enumerated: ``state`` accesses pair within
    their label's group, ``mem`` accesses by a sweep over start-sorted
    spans that keeps just the spans still open at the next start —
    O(A log A + aliasing pairs) instead of all A² pairs.
    """
    by_label: dict[str, list[int]] = {}
    spans: list[tuple[int, int, int]] = []
    for i, item in enumerate(timeline):
        if isinstance(item, BufferAccess):
            if item.space == "state":
                by_label.setdefault(item.buffer, []).append(i)
            else:
                spans.append((item.start, item.end, i))
    for group in by_label.values():
        yield from combinations(group, 2)
    # sorted by (start, end), a span still open at ``start`` overlaps the
    # current one; an empty span sorts before every span sharing its
    # start, so it is closed before any of them arrives
    spans.sort()
    active: list[tuple[int, int, int]] = []
    for start, end, j in spans:
        active = [span for span in active if span[1] > start]
        for _start, _end, i in active:
            yield (i, j) if i < j else (j, i)
        active.append((start, end, j))


def analyze_trace(trace: ScheduleTrace, scheme: str,
                  world: int) -> list[Finding]:
    """Race-check one captured timeline; [] means race-free."""
    out = CellFindings("race", RACE_RULES, scheme, world)
    timeline = trace.timeline
    anc = _ancestor_sets(timeline)

    # aggregate racing pairs per (rule, endpoints) so one systematic bug
    # yields one finding, not one per step of the schedule; ``a`` is the
    # earlier timeline node
    races: dict[tuple, int] = {}
    for i, j in _aliasing_pairs(timeline):
        a, b = timeline[i], timeline[j]
        if a.rank == b.rank:           # ordered by program order
            continue
        if not (a.is_write or b.is_write):
            continue
        if (anc[j] >> i) & 1 or (anc[i] >> j) & 1:
            continue                   # happens-before ordered
        if a.space == "state":
            rule = "RACE003"
        elif a.is_write and b.is_write:
            rule = "RACE001"
        else:
            rule = "RACE002"
        key = (rule, a.kind, b.kind, a.rank, b.rank, a.buffer, b.buffer)
        races[key] = races.get(key, 0) + 1

    for (rule, kind_a, kind_b, rank_a, rank_b, buf_a, buf_b), count \
            in sorted(races.items()):
        where = (f"state key {buf_a}" if rule == "RACE003"
                 else f"aliased memory ({buf_a!r} / {buf_b!r})")
        out.emit(
            rule,
            f"rank {rank_a} {kind_a} and rank {rank_b} {kind_b} on {where} "
            f"with no happens-before ordering ({count} occurrence(s))")

    seen_overlaps: set[tuple] = set()
    for a_pos in range(len(trace.declared)):
        rank_a, name_a, start_a, end_a = trace.declared[a_pos]
        for b_pos in range(a_pos + 1, len(trace.declared)):
            rank_b, name_b, start_b, end_b = trace.declared[b_pos]
            if rank_a == rank_b:
                continue
            if not (start_a < end_b and start_b < end_a):
                continue
            overlap = min(end_a, end_b) - max(start_a, start_b)
            key = (rank_a, name_a, rank_b, name_b)
            if key in seen_overlaps:
                continue
            seen_overlaps.add(key)
            out.emit(
                "RACE004",
                f"rank {rank_a} buffer {name_a!r} and rank {rank_b} buffer "
                f"{name_b!r} declared rank-local but share {overlap} bytes")
    return sort_findings(out)


#: spec battery for the registered-scheme sweep: the stateless default
#: plus a stateful operator (PowerSGD warm start) so keyed-state
#: accesses (RACE003's subject) actually appear in the timeline
_RACE_SPECS = (
    CompressionSpec("qsgd", bits=4, bucket_size=32),
    CompressionSpec("powersgd", rank=4),
)


def verify_races() -> list[Finding]:
    """Race-check every registered scheme (all worlds x all specs)."""
    findings: list[Finding] = []
    for case in default_cases():
        for spec in _RACE_SPECS:
            trace, _ = trace_case(case, spec=spec)
            findings.extend(analyze_trace(trace, case.scheme, case.world))
    return sort_findings(findings)


def analyze_callable(fn: Callable, world: int,
                     scheme: str = "custom") -> list[Finding]:
    """Race-check an unregistered collective with the standard signature.

    Mirror of :func:`repro.analysis.schedule.verify_callable` — the hook
    for toy schemes (the negative-control tests inject a deliberately
    racy reduction here and assert the detector catches it).
    """
    trace, _ = trace_collective(fn, world)
    return analyze_trace(trace, scheme, world)
