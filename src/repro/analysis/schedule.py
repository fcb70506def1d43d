"""Collective-schedule verifier.

Runs each registered reduction scheme against instrumented fake ranks
(synthetic gradient buffers, a real compressor) under
:func:`repro.collectives.trace.capture`, then statically checks the
captured send/recv event log:

* **SCH001** — orphan send: a payload no rank ever receives (asymmetric
  schedule; under rendezvous semantics the sender blocks forever).
* **SCH002** — recv without a matching send: the receiver waits on a
  message that never exists — a deadlock in any semantics.
* **SCH003** — causality: a recv consumed before its send was emitted.
* **SCH004** — self-message (``src == dst``): a rank "transmitting" to
  itself indicates a schedule indexing bug.
* **SCH005** — wire conservation: total bytes across send events must
  equal ``ReduceStats.wire_bytes``, so the perf model and the data path
  cannot silently diverge.
* **SCH006** — recompression depth: ``max_recompressions`` must stay
  within the scheme's analytic bound (SRA 2, allgather 1, tree
  ``log2(N)+1``, ...); exceeding it means values absorb more
  quantization error than the scheme's convergence argument assumes.
* **SCH007** — rank out of range for the declared world size.

The model assumes eager (buffered) sends and blocking receives, which
matches how the simulated data path executes; deadlock freedom is then
exactly "every recv is satisfiable" (SCH002) plus causal ordering
(SCH003).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives import ALGORITHMS, PartialAllreduce
from repro.collectives.base import ReduceStats
from repro.collectives.trace import ScheduleTrace, capture
from repro.compression import CompressionSpec, make_compressor

from .findings import Finding, sort_findings

__all__ = ["SchemeCase", "default_cases", "trace_collective", "trace_case",
           "verify_trace",
           "verify_case", "verify_schedules", "verify_callable",
           "expected_recompression_bound"]


@dataclass(frozen=True)
class SchemeCase:
    """One (scheme, world, topology/quorum) configuration to verify."""

    scheme: str
    world: int
    node_of: tuple[int, ...] | None = None
    participants: tuple[int, ...] | None = None


def default_cases() -> list[SchemeCase]:
    """Every registered scheme at several world sizes.

    Hierarchical needs >= 2 members per node (a single-member node
    degenerates to a world-1 SRA whose broadcast accounting has no
    receiver); partial runs with a strict quorum so at least one
    laggard exercises the late-delivery path.
    """
    cases: list[SchemeCase] = []
    for scheme in sorted(ALGORITHMS):
        if scheme == "hier":
            cases.append(SchemeCase(scheme, 4, node_of=(0, 0, 1, 1)))
            cases.append(SchemeCase(scheme, 6, node_of=(0, 0, 0, 1, 1, 1)))
        else:
            for world in (2, 3, 4, 5):
                cases.append(SchemeCase(scheme, world))
    cases.append(SchemeCase("partial", 4, participants=(0, 1, 2)))
    cases.append(SchemeCase("partial", 5, participants=(0, 2, 4)))
    return cases


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


def trace_collective(fn: Callable, world: int, numel: int = 97,
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
    buffers = [np.asarray(rng.normal(size=numel), dtype=np.float32)
               for _ in range(world)]
    with capture() as trace:
        result = fn(buffers, compressor, rng, key="verify")
    return trace, result


def trace_case(case: SchemeCase, numel: int = 97,
               spec: CompressionSpec | None = None, seed: int = 0,
               ) -> tuple[ScheduleTrace, ReduceStats]:
    """Run one registered scheme on fake ranks, capturing events."""
    if case.scheme == "partial":
        def quorum_reduce(buffers: list, compressor: Any, rng: Any,
                          key: str) -> Any:
            return PartialAllreduce(case.world).reduce(
                buffers, list(case.participants or range(case.world)),
                compressor, rng, key=key)
        scheme: Callable = quorum_reduce
    elif case.node_of is not None:
        scheme = partial(ALGORITHMS[case.scheme], node_of=list(case.node_of))
    else:
        scheme = ALGORITHMS[case.scheme]
    trace, (_, stats) = trace_collective(scheme, case.world, numel, spec, seed)
    return trace, stats


def verify_trace(trace: ScheduleTrace, stats: ReduceStats,
                 case: SchemeCase) -> list[Finding]:
    """Statically check one captured event log; [] means clean."""
    findings: list[Finding] = []

    def emit(rule: str, message: str) -> None:
        findings.append(Finding.semantic("schedule", rule, message,
                                         case.scheme, case.world))

    sends = Counter(e.match_key() for e in trace.sends)
    recvs = Counter(e.match_key() for e in trace.recvs)
    for key, count in sorted((sends - recvs).items()):
        src, dst, step, nbytes, tag = key
        emit("SCH001", f"{count} send(s) {src}->{dst} at step {step} "
                       f"(tag {tag!r}, {nbytes}B) never received")
    for key, count in sorted((recvs - sends).items()):
        src, dst, step, nbytes, tag = key
        emit("SCH002", f"rank {dst} waits for {count} message(s) from "
                       f"{src} at step {step} (tag {tag!r}, {nbytes}B) "
                       f"that are never sent — deadlock")

    # causality: replay the log; a recv must follow its send
    available: Counter = Counter()
    causality_bad = 0
    for event in trace.events:
        key = event.match_key()
        if event.kind == "send":
            available[key] += 1
        elif available[key] > 0:
            available[key] -= 1
        elif sends[key] >= recvs[key]:  # matched overall, wrong order
            causality_bad += 1
    if causality_bad:
        emit("SCH003", f"{causality_bad} recv event(s) consumed before "
                       f"their matching send was emitted")

    for event in trace.events:
        if event.src == event.dst:
            emit("SCH004", f"self-message at step {event.step} "
                           f"(rank {event.src}, tag {event.tag!r})")
        if not (0 <= event.src < case.world and 0 <= event.dst < case.world):
            emit("SCH007", f"event {event.kind} {event.src}->{event.dst} "
                           f"outside world of {case.world} ranks")

    sent_bytes = trace.send_bytes()
    if sent_bytes != stats.wire_bytes:
        emit("SCH005", f"traced payload bytes ({sent_bytes}) != "
                       f"ReduceStats.wire_bytes ({stats.wire_bytes}); "
                       f"schedule and accounting disagree")

    bound = expected_recompression_bound(case.scheme, case.world)
    if stats.max_recompressions > bound:
        emit("SCH006", f"max_recompressions={stats.max_recompressions} "
                       f"exceeds the scheme bound of {bound}")
    return sort_findings(findings)


def verify_case(case: SchemeCase, **trace_kwargs: Any) -> list[Finding]:
    trace, stats = trace_case(case, **trace_kwargs)
    return verify_trace(trace, stats, case)


def verify_schedules(cases: Sequence[SchemeCase] | None = None,
                     ) -> list[Finding]:
    """Verify every case (default: all registered schemes); [] = clean."""
    findings: list[Finding] = []
    for case in (default_cases() if cases is None else cases):
        findings.extend(verify_case(case))
    return sort_findings(findings)


def verify_callable(fn: Callable, world: int, scheme: str = "custom",
                    numel: int = 97, seed: int = 0) -> list[Finding]:
    """Verify an unregistered collective with the standard signature.

    ``fn(buffers, compressor, rng, key=...) -> (outputs, ReduceStats)`` —
    the hook for testing toy or third-party schemes without touching the
    :data:`~repro.collectives.ALGORITHMS` registry.
    """
    trace, (_, stats) = trace_collective(fn, world, numel, seed=seed)
    return verify_trace(trace, stats, SchemeCase(scheme, world))
