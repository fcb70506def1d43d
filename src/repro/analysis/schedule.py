"""Collective-schedule verifier (rules SCH001..SCH007).

Runs each registered reduction scheme against instrumented fake ranks
(synthetic gradient buffers, a real compressor) under
:func:`repro.collectives.trace.capture`, then statically checks the
captured send/recv log.  The model assumes eager (buffered) sends and
blocking receives, which matches how the simulated data path executes;
deadlock freedom is then exactly "every recv is satisfiable" (SCH002)
plus causal ordering (SCH003).  Pairing comes from the trace's one
matcher (:func:`~repro.collectives.trace.match_messages`); the rules:

"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.collectives import (CELL_SCHEMES, EXPLICIT_CELLS, SchemeCell,
                               run_cell, scheme_cell)
from repro.collectives.base import ReduceStats
from repro.collectives.trace import ScheduleTrace, capture, match_messages
from repro.compression import CompressionSpec, make_compressor

from .findings import CellFindings, Finding, rule_table, sort_findings

__all__ = ["SCH_RULES", "SchemeCase", "default_cases", "trace_collective",
           "trace_case", "verify_trace",
           "verify_case", "verify_schedules", "verify_callable",
           "expected_recompression_bound"]

SCH_RULES = {
    "SCH001": "orphan send: a payload no rank ever receives",
    "SCH002": "recv without a matching send (deadlock)",
    "SCH003": "causality: a recv consumed before its send was emitted",
    "SCH004": "self-message (src == dst)",
    "SCH005": "traced send bytes differ from ReduceStats.wire_bytes",
    "SCH006": "recompression depth exceeds the scheme's analytic bound",
    "SCH007": "rank out of range for the declared world size",
}
__doc__ = rule_table(__doc__, SCH_RULES)

#: one (scheme, world, topology/quorum) configuration to verify — a row
#: of the cell table in :mod:`repro.collectives`
SchemeCase = SchemeCell

#: schemes whose rows are not the grid's worlds 2..5: hierarchical's
#: default placement has two nodes from world 4 up (below, it is the
#: one-node SRA fallback) and 6 adds three-member nodes; the quorum
#: reducer runs the default strict quorum at 4 plus the explicit
#: interleaved-laggard row.  The degenerate rows verify clean too; they
#: are swept by tier-1, not by this battery
_SCHEME_WORLDS = {"hier": (4, 6), "partial": (4,)}

#: elements per fake rank's buffer in every traced collective
TRACE_NUMEL = 97


def default_cases() -> list[SchemeCase]:
    """Every registered scheme at several world sizes."""
    return [scheme_cell(scheme, world) for scheme in CELL_SCHEMES
            for world in _SCHEME_WORLDS.get(scheme, (2, 3, 4, 5))
            ] + list(EXPLICIT_CELLS)


def expected_recompression_bound(scheme: str, world: int) -> int:
    """Worst-case quantize rounds any value may see under ``scheme``."""
    fixed = {"sra": 2, "allgather": 1, "ps": 2, "hier": 5, "partial": 3}
    if scheme in fixed:
        return fixed[scheme]
    if scheme == "ring":
        return world
    if scheme == "tree":
        return math.ceil(math.log2(max(2, world))) + 1
    return world  # unknown scheme: the loosest defensible bound


def trace_collective(fn: Callable, world: int,
                     spec: CompressionSpec | None = None, seed: int = 0,
                     ) -> tuple[ScheduleTrace, Any]:
    """Run ``fn(buffers, compressor, rng, key=...)`` on synthetic
    fake-rank buffers, capturing its events: ``(trace, fn's result)``.

    The one collective tracer behind :func:`trace_case`,
    :func:`verify_callable` and :func:`~repro.analysis.races
    .analyze_callable`.
    """
    compressor = make_compressor(
        spec or CompressionSpec("qsgd", bits=4, bucket_size=32))
    rng = np.random.default_rng(seed)
    buffers = [np.asarray(rng.normal(size=TRACE_NUMEL), dtype=np.float32)
               for _ in range(world)]
    with capture() as trace:
        result = fn(buffers, compressor, rng, key="verify")
    return trace, result


def trace_case(case: SchemeCase, spec: CompressionSpec | None = None,
               seed: int = 0) -> tuple[ScheduleTrace, ReduceStats]:
    """Run one registered scheme on fake ranks, capturing events."""
    trace, (_, stats) = trace_collective(partial(run_cell, case), case.world,
                                         spec, seed)
    return trace, stats


def verify_trace(trace: ScheduleTrace, stats: ReduceStats,
                 case: SchemeCase) -> list[Finding]:
    """Statically check one captured event log; [] means clean."""
    out = CellFindings("schedule", SCH_RULES, case.scheme, case.world)
    match = match_messages(trace.events)
    for (src, dst, step, nbytes, tag), count in sorted(
            match.orphan_sends.items()):
        out.emit("SCH001", f"{count} send(s) {src}->{dst} at step {step} "
                           f"(tag {tag!r}, {nbytes}B) never received")
    for (src, dst, step, nbytes, tag), count in sorted(
            match.orphan_recvs.items()):
        out.emit("SCH002", f"rank {dst} waits for {count} message(s) from "
                           f"{src} at step {step} (tag {tag!r}, {nbytes}B) "
                           f"that are never sent — deadlock")
    if match.early_recvs:
        out.emit("SCH003", f"{match.early_recvs} recv event(s) consumed "
                           f"before their matching send was emitted")

    for event in trace.events:
        if event.src == event.dst:
            out.emit("SCH004", f"self-message at step {event.step} "
                               f"(rank {event.src}, tag {event.tag!r})")
        if not (0 <= event.src < case.world and 0 <= event.dst < case.world):
            out.emit("SCH007", f"event {event.kind} {event.src}->{event.dst} "
                               f"outside world of {case.world} ranks")

    sent_bytes = trace.send_bytes()
    if sent_bytes != stats.wire_bytes:
        out.emit("SCH005", f"traced payload bytes ({sent_bytes}) != "
                           f"ReduceStats.wire_bytes ({stats.wire_bytes}); "
                           f"schedule and accounting disagree")

    bound = expected_recompression_bound(case.scheme, case.world)
    if stats.max_recompressions > bound:
        out.emit("SCH006", f"max_recompressions={stats.max_recompressions} "
                           f"exceeds the scheme bound of {bound}")
    return sort_findings(out)


def verify_case(case: SchemeCase) -> list[Finding]:
    trace, stats = trace_case(case)
    return verify_trace(trace, stats, case)


def verify_schedules() -> list[Finding]:
    """Verify every registered scheme's cells; [] = clean."""
    findings: list[Finding] = []
    for case in default_cases():
        findings.extend(verify_case(case))
    return sort_findings(findings)


def verify_callable(fn: Callable, world: int,
                    scheme: str = "custom") -> list[Finding]:
    """Verify an unregistered collective with the standard signature.

    ``fn(buffers, compressor, rng, key=...) -> (outputs, ReduceStats)`` —
    the hook for testing toy or third-party schemes without touching the
    :data:`~repro.collectives.ALGORITHMS` registry.
    """
    trace, (_, stats) = trace_collective(fn, world)
    return verify_trace(trace, stats, SchemeCase(scheme, world))
