"""Liveness case generation: (scheme x world x fault campaign) traces.

The deadlock & liveness certifier (:mod:`repro.analysis.liveness`)
needs schedule traces of every reduction scheme *as the fault runtime
reshapes them*: retransmit pairs injected by the
:class:`~repro.faults.inject.FaultChannel`, quorum demotion when a rank
crashes, carry banking and draining in
:class:`~repro.collectives.partial.PartialAllreduce`, and the rejoin
step afterwards.  This module builds that battery.

Each :class:`LivenessCase` produces one multi-phase trace (phases are
:func:`~repro.collectives.trace.phase_scope` spans — the barrier
between sequential collective calls):

* ``none`` / ``straggler`` / ``lossy-link`` — the scheme runs under the
  named campaign's injection at a step inside its fault window
  (stragglers reshape *timing* only, so their schedule matches the
  fault-free one; lossy links add bounded retransmit send/recv pairs).
  The partial scheme runs a quorum phase followed by a
  full-participation phase that must drain every carry the quorum
  banked.
* ``crash-rejoin`` — the full-world schedule before the crash, the
  *demoted* schedule over the surviving quorum at the crash step
  (survivors re-rank through
  :func:`~repro.collectives.trace.rank_scope`, mirroring how the
  supervisor rebuilds the collective), and the full-world schedule
  after the rejoin.  The ranks dead at the crash step become the
  case's ``excluded`` set: no event in the trace may name them
  (rule DLV003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.collectives import (PartialAllreduce, SchemeCell, default_quorum,
                               run_cell, scheme_cells)
from repro.collectives.trace import (ScheduleTrace, capture, phase_scope,
                                     rank_scope)
from repro.compression import CompressionSpec, Compressor, make_compressor

from .inject import inject_data_path
from .plan import FIXED_WORLD_CAMPAIGNS, PlanRuntime, make_campaign
from .policy import ResiliencePolicy

__all__ = ["LivenessCase", "LivenessAux", "liveness_cases",
           "trace_liveness_case", "LIVENESS_CAMPAIGNS"]

#: campaign axes of the battery; "none" is the fault-free control.  The
#: elastic campaigns resize the world, which these fixed-world scripts
#: do not model (the ELA battery certifies them).
LIVENESS_CAMPAIGNS = ("none",) + FIXED_WORLD_CAMPAIGNS

#: the step every injecting campaign is sampled at (inside the loss
#: window of lossy-link, the crash window of crash-rejoin, and the
#: straggler window of straggler)
_FAULT_STEP = 4

#: elements per fake rank's buffer, as in the schedule battery
_NUMEL = 97

#: the step after every campaign's crash events have ended
_REJOIN_STEP = 9


@dataclass(frozen=True)
class LivenessCase(SchemeCell):
    """One (scheme, world, campaign) cell of the liveness battery: a
    row of the cell table plus the campaign axis."""

    campaign: str = "none"                        # one of LIVENESS_CAMPAIGNS
    excluded: tuple[int, ...] = ()                # ranks dead at _FAULT_STEP
    seed: int = 0

    @property
    def path(self) -> str:
        return f"<liveness:{self.scheme}@world={self.world}/{self.campaign}>"


@dataclass
class LivenessAux:
    """Side observations the certifier checks beyond the trace itself."""

    #: partial scheme only: carries still banked after the drain phase
    undrained_carries: bool = False
    #: phase labels the case executed, in order (diagnostics)
    phases: list[str] = field(default_factory=list)
    #: phase label -> ranks dead while that phase ran; only those phases
    #: are subject to the excluded-rank rule (DLV003) — before the crash
    #: and after the rejoin the rank legitimately participates
    phase_excluded: dict[str, tuple[int, ...]] = field(default_factory=dict)


def liveness_cases(worlds: Sequence[int] = (2, 3, 4)
                   ) -> list[LivenessCase]:
    """The full battery: every scheme x world x campaign cell.

    ``excluded`` for crash-rejoin cells is derived from the campaign
    plan itself (the ranks dead at the sampled fault step), so the case
    list stays in lockstep with
    :func:`~repro.faults.plan.make_campaign`.
    """
    cases: list[LivenessCase] = []
    for cell in scheme_cells(worlds):
        for campaign in LIVENESS_CAMPAIGNS:
            excluded: tuple[int, ...] = ()
            if campaign == "crash-rejoin":
                plan = make_campaign(campaign, world=cell.world)
                excluded = tuple(sorted(
                    plan.at_step(_FAULT_STEP).dead_ranks()))
            cases.append(LivenessCase(
                cell.scheme, cell.world, cell.node_of, cell.participants,
                campaign=campaign, excluded=excluded))
    return cases


class _CaseRunner:
    """Executes one battery cell phase by phase (shared rng/compressor)."""

    def __init__(self, case: LivenessCase):
        self.case = case
        self.compressor: Compressor = make_compressor(
            CompressionSpec("qsgd", bits=4, bucket_size=32))
        self.rng = np.random.default_rng(case.seed)
        self.buffers = [
            np.asarray(self.rng.normal(size=_NUMEL), dtype=np.float32)
            for _ in range(case.world)]
        # the quorum column keeps one reducer so the drain phase can
        # fold in the carries the quorum phase banked
        self.reducer = (PartialAllreduce(case.world)
                        if case.participants is not None else None)
        self.aux = LivenessAux()

    def phase(self, label: str, body: Callable[[], None]) -> None:
        self.aux.phases.append(label)
        with phase_scope(label):
            body()

    def reduce(self, participants: Sequence[int] | None = None) -> None:
        """One full-world collective call of this case's cell."""
        run_cell(self.case, self.buffers, self.compressor, self.rng,
                 key="live", reducer=self.reducer, participants=participants)

    # -- campaign scripts ----------------------------------------------

    def run_steady(self, inject_step: int | None,
                   runtime: PlanRuntime | None) -> None:
        """One reduction step (plus the partial drain step)."""
        if runtime is not None and inject_step is not None:
            runtime.advance(inject_step)
        self.phase("step" if inject_step is None else f"step{inject_step}",
                   self.reduce)
        if self.reducer is not None:
            # full participation folds in every banked carry
            self.phase("drain",
                       lambda: self.reduce(range(self.case.world)))
            self.aux.undrained_carries |= self.reducer.has_carries()

    def run_crash_rejoin(self, runtime: PlanRuntime) -> None:
        """full -> demoted (survivor quorum) -> rejoined, one trace."""
        case = self.case
        runtime.advance(_FAULT_STEP - 1)
        self.phase("full", self.reduce)

        runtime.advance(_FAULT_STEP)
        dead = runtime.faults().dead_ranks()
        live = [r for r in range(case.world) if r not in dead]
        self.aux.phase_excluded["demoted"] = tuple(sorted(dead))
        if len(live) >= 2:
            # the supervisor rebuilds the group over survivors (re-ranked
            # through rank_scope).  The quorum column runs a strict
            # quorum inside it — the late path among live ranks only —
            # then a drain call that empties the carries
            survivors = [self.buffers[r] for r in live]
            quorums: list[Sequence[int] | None] = [None]
            demoted = None
            if self.reducer is not None:
                demoted = PartialAllreduce(len(live))
                quorums = [default_quorum(len(live)), range(len(live))]
            node_of = (_rebalance_nodes(tuple(case.node_of[r] for r in live))
                       if case.node_of is not None else None)

            def demoted_body() -> None:
                with rank_scope(live):
                    for quorum in quorums:
                        run_cell(case, survivors, self.compressor, self.rng,
                                 key="demoted", reducer=demoted,
                                 node_of=node_of, participants=quorum)

            self.phase("demoted", demoted_body)
            if demoted is not None:
                self.aux.undrained_carries |= demoted.has_carries()
        # a single survivor has nobody to reduce with: the engine skips
        # the collective for that step (nothing to certify)

        runtime.advance(_REJOIN_STEP)
        self.phase("rejoined", self.reduce)


def _rebalance_nodes(node_of: tuple[int, ...]) -> tuple[int, ...]:
    """Collapse to one node if any node dropped below two members."""
    counts: dict[int, int] = {}
    for node in node_of:
        counts[node] = counts.get(node, 0) + 1
    if any(count < 2 for count in counts.values()):
        return tuple(0 for _ in node_of)
    return node_of


def trace_liveness_case(case: LivenessCase
                        ) -> tuple[ScheduleTrace, LivenessAux]:
    """Execute one battery cell, capturing its multi-phase trace."""
    runner = _CaseRunner(case)
    with capture() as trace:
        if case.campaign == "none":
            runner.run_steady(inject_step=None, runtime=None)
        else:
            runtime = PlanRuntime(
                make_campaign(case.campaign, world=case.world,
                              seed=case.seed),
                ResiliencePolicy())
            with inject_data_path(runtime):
                if case.campaign == "crash-rejoin":
                    runner.run_crash_rejoin(runtime)
                else:
                    runner.run_steady(inject_step=_FAULT_STEP,
                                      runtime=runtime)
    return trace, runner.aux
