"""Deadlock & progress certifier (Pillar 8, rules DLV001..DLV006).

The schedule verifier (SCH) proves each scheme's send/recv log is
*symmetric*; this pass proves the schedules cannot *stop making
progress* — under fault campaigns that reshape them and under any rank
interleaving a real transport might pick.  The execution model is
eager sends, blocking recvs and a barrier between
:func:`~repro.collectives.trace.phase_scope` spans; the battery lives
in :mod:`repro.faults.cases`, the execution model in
:mod:`repro.analysis.explore`.  The rules:

"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Mapping, Sequence

from repro.collectives.trace import (ScheduleTrace, TraceEvent,
                                     match_messages)

from .explore import build_programs, fair_schedule, phase_segments
from .findings import CellFindings, Finding, rule_table, sort_findings
from .rules import SourceFile, call_name, lint_roots

__all__ = ["DLV_RULES", "analyze_segment", "analyze_trace_liveness",
           "lint_blocking", "verify_liveness", "blocking_default_roots"]

DLV_RULES = {
    "DLV001": "wait-for cycle among blocked ranks (potential deadlock)",
    "DLV002": "blocking endpoint that can never match in its phase",
    "DLV003": "event names a quorum-excluded rank",
    "DLV005": "bounded wait violated or carries left undrained",
    "DLV006": "blocking call bypasses the deliver_chunk/trace hooks",
}
__doc__ = rule_table(__doc__, DLV_RULES)


# -- wait-for graph over one barrier phase ------------------------------------

def _find_cycle(edges: dict[int, list[int]]) -> list[int]:
    """Any cycle in a graph where every node has an out-edge."""
    for start in sorted(edges):
        seen: dict[int, int] = {}
        path: list[int] = []
        node = start
        while node in edges and node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = min(edges[node])  # deterministic walk
        if node in seen:
            return path[seen[node]:]
    return []


def analyze_segment(label: str, events: Sequence[TraceEvent], path: str,
                    scheme: str = "", world: int = 0,
                    excluded: Iterable[int] = ()) -> list[Finding]:
    """DLV001/002/003/005 over one barrier phase of a trace."""
    out = CellFindings("liveness", DLV_RULES, scheme, world, path)
    excluded_set = set(excluded)

    if excluded_set:
        flagged: set = set()
        for event in events:
            bad = {event.src, event.dst} & excluded_set
            if bad and event not in flagged:
                flagged.add(event)
                out.emit("DLV003",
                         f"phase {label!r}: {event.kind} {event.src}->"
                         f"{event.dst} (tag {event.tag!r}) names excluded "
                         f"rank(s) {sorted(bad)} — traffic routed to a rank "
                         f"the quorum removed")

    # DLV002 (static): per-key count mismatch inside the phase.  A recv
    # beyond the phase's sends waits on a message that cannot arrive
    # before the barrier; a send beyond its recvs is never consumed.
    match = match_messages(events)
    for key in sorted(set(match.orphan_sends) | set(match.orphan_recvs)):
        src, dst, step, nbytes, tag = key
        if key in match.orphan_recvs:
            out.emit("DLV002",
                     f"phase {label!r}: rank {dst} blocks on "
                     f"{match.orphan_recvs[key]} recv(s) {src}->{dst} "
                     f"(tag {tag!r}, step {step}) with no matching send in "
                     f"the phase")
        else:
            out.emit("DLV002",
                     f"phase {label!r}: {match.orphan_sends[key]} send(s) "
                     f"{src}->{dst} (tag {tag!r}, step {step}) are never "
                     f"received in the phase")

    # DLV001: the one execution's terminal state is every interleaving's
    # (explore.py); a stuck rank whose sender exists is waiting on
    # another stuck rank, so the blocked set carries a wait-for cycle.
    programs = build_programs(events)
    run = fair_schedule(programs)
    blocked = run.blocked
    if not run.completed:
        edges: dict[int, list[int]] = {}
        for rank, op in sorted(blocked.items()):
            senders = sorted(
                other for other, ops in run.remaining.items()
                if any(o.kind == "send" and o.key == op.key for o in ops))
            if senders:
                edges[rank] = senders
        cycle = _find_cycle(edges)
        if cycle:
            chain = " -> ".join(str(r) for r in cycle + [cycle[0]])
            waits = "; ".join(
                f"rank {r} blocked on {blocked[r].describe()}"
                for r in cycle)
            out.emit("DLV001",
                     f"phase {label!r}: wait-for cycle {chain} ({waits})")
        elif not any(f.rule == "DLV002" for f in out):
            # defensive: stuck without a cycle or an orphan should be
            # impossible; surface it rather than certifying
            stuck = ", ".join(f"rank {r} on {op.describe()}"
                              for r, op in sorted(blocked.items()))
            out.emit("DLV001",
                     f"phase {label!r}: execution stuck without a wait-for "
                     f"cycle ({stuck})")
        return out

    # DLV005: bounded wait under the fair round-robin scheduler
    bound = run.bound(world or max(programs, default=0) + 1)
    if run.max_wait > bound:
        out.emit("DLV005",
                 f"phase {label!r}: a blocked recv waited {run.max_wait} "
                 f"fair scheduler rounds (bound {bound} for longest program "
                 f"{run.longest}) for its matching send")
    return out


def analyze_trace_liveness(trace: ScheduleTrace, path: str,
                           scheme: str = "", world: int = 0,
                           excluded_by_phase:
                           Mapping[str, Iterable[int]] | None = None,
                           undrained_carries: bool = False,
                           ) -> list[Finding]:
    """All dynamic DLV rules over one captured multi-phase trace.

    ``excluded_by_phase`` maps a phase label to the ranks dead *while
    that phase ran* — exclusion is a property of the moment in the
    campaign, not of the whole trace (a crashed rank participates
    legitimately before its crash and after its rejoin).
    """
    out = CellFindings("liveness", DLV_RULES, scheme, world, path)
    excluded_by_phase = excluded_by_phase or {}
    for label, events in phase_segments(trace):
        out.extend(analyze_segment(
            label, events, path, scheme, world,
            excluded_by_phase.get(label, ())))
    if undrained_carries:
        out.emit("DLV005",
                 "carries remain banked after the drain phase — a skipped "
                 "gradient is stranded forever")
    return sort_findings(out)


# -- DLV006: static AST pass over collectives/ and faults/ --------------------

#: module-level calls that block outside the audited message path
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"), ("select", "select"), ("select", "poll"),
    ("select", "epoll"), ("signal", "pause"), ("signal", "sigwait"),
    ("os", "wait"), ("os", "waitpid"),
}

#: method names that block regardless of the receiver object
_BLOCKING_METHODS = {"acquire", "wait", "wait_for"}

#: functions allowed to emit send/recv endpoints without deliver_chunk:
#: the trace module defines the hooks, and fault channels *are* the
#: delivery path
_EMIT_EXEMPT_MODULES = {"trace.py"}
_EMIT_EXEMPT_FUNCTIONS = {"deliver"}


def blocking_default_roots() -> tuple[str, ...]:
    """The packages the DLV006 pass audits, located via their imports."""
    import repro.collectives
    import repro.faults

    return (os.path.dirname(os.path.abspath(repro.collectives.__file__)),
            os.path.dirname(os.path.abspath(repro.faults.__file__)))


def lint_blocking_source(source: str, path: str) -> list[Finding]:
    """DLV006 over one file's source text."""
    findings: list[Finding] = []
    file = SourceFile(source, path)
    basename = os.path.basename(path)

    for func, nodes in file.functions():
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        bare = {call_name(call)[1] for call in calls}

        emits = bare & {"emit_send", "emit_recv"}
        if emits and "deliver_chunk" not in bare \
                and basename not in _EMIT_EXEMPT_MODULES \
                and func.name not in _EMIT_EXEMPT_FUNCTIONS \
                and not func.name.startswith("emit_"):
            findings.append(file.finding(
                "DLV006", func,
                f"function {func.name!r} emits "
                f"{'/'.join(sorted(emits))} without routing the "
                f"payload through deliver_chunk — the transfer "
                f"blocks invisibly to fault injection", "liveness"))

        for call in calls:
            qualifier, name = call_name(call)
            blocking = (qualifier, name) in _BLOCKING_MODULE_CALLS or (
                qualifier is not None and name in _BLOCKING_METHODS)
            if blocking:
                label = f"{qualifier}.{name}" if qualifier else name
                findings.append(file.finding(
                    "DLV006", call,
                    f"raw blocking primitive {label!r} in "
                    f"{func.name!r} bypasses the deliver_chunk/"
                    f"trace hooks — unauditable blocking", "liveness"))
    return findings


def lint_blocking() -> list[Finding]:
    """DLV006 over every python file of the collectives and faults
    packages, occurrence-numbered for stable fingerprints."""
    return lint_roots(blocking_default_roots(), lint_blocking_source)


# -- the full battery ---------------------------------------------------------

def verify_liveness() -> list[Finding]:
    """Certify every (scheme x world x campaign) cell; [] means clean."""
    from repro.faults.cases import liveness_cases, trace_liveness_case

    findings: list[Finding] = []
    for case in liveness_cases():
        trace, aux = trace_liveness_case(case)
        findings.extend(analyze_trace_liveness(
            trace, case.path, scheme=case.scheme, world=case.world,
            excluded_by_phase=aux.phase_excluded,
            undrained_carries=aux.undrained_carries))
    findings.extend(lint_blocking())
    return sort_findings(findings)
