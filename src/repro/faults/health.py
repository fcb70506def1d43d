"""Autonomous failure detection: heartbeats, phi-accrual, supervision.

PR 3's recovery machinery is oracle-driven — the trainer and
:func:`~repro.faults.policy.select_members` read crash/straggler
facts straight out of the injected :class:`~repro.faults.plan.FaultPlan`,
which no real deployment can do.  This module closes the loop with the
three pieces a real cluster uses:

* :class:`HeartbeatTransport` — each rank emits one heartbeat per step
  after finishing its (possibly straggler-stretched) compute; the beat
  rides the simulated timed network path to the monitor rank, subject
  to the same link slowdowns, outages and one-shot message loss the
  data path sees.  Heartbeats are fire-and-forget (no retransmit):
  silence *is* the failure signal.
* :class:`HealthMonitor` — a per-rank **phi-accrual failure detector**
  (Hayashibara et al.): the inter-arrival history of each rank's beats
  yields a suspicion score ``phi = -log10 P(gap this long | history)``,
  classified into ``healthy`` / ``flaky`` / ``straggler`` / ``crashed``.
  Straggler classification is cross-sectional: a rank whose
  schedule-relative arrival offset exceeds ``STRAGGLER_RATIO`` times
  the fleet median for ``STRAGGLER_PATIENCE`` consecutive assessments
  is demoted-eligible.  Everything is seeded and deterministic.
* :class:`Supervisor` — consumes detector verdicts (never the fault
  plan) and decides: the step's quorum, straggler demotions, rejoin
  admission after ``REJOIN_CONFIRMATIONS`` healthy beats (the trainer
  then runs peer state transfer), and escalation to a durable
  checkpoint restore once a rank has flapped crash/rejoin
  ``ESCALATION_FLAPS`` times.

The :class:`~repro.training.trainer.DataParallelTrainer` wires these in
behind ``supervised=True``; the oracle path stays as the calibration
baseline.  The HLT001..HLT005 battery in :mod:`repro.analysis.health`
certifies detection latency, zero false positives on fault-free runs,
and convergence parity with the oracle path.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable

from repro.cluster.topology import nvlink_mesh

from .inject import FaultyNetwork
from .plan import PlanRuntime
from .policy import MIN_QUORUM_FRACTION, quorum_floor

__all__ = ["VERDICTS", "PhiAccrualDetector", "RankHealth",
           "HealthMonitor", "HeartbeatTransport", "Supervisor",
           "SupervisorDecision"]

#: every state the detector can assign a rank
VERDICTS = ("healthy", "flaky", "straggler", "crashed")


# The detector's settings.  Every supervised campaign runs these values,
# and the HLT battery certifies its latency bounds at exactly them.

#: nominal heartbeat period in simulated seconds (one beat per step)
INTERVAL = 1.0
#: fraction of ``INTERVAL`` a healthy step spends before its beat is
#: emitted; a rank whose compute is stretched by factor *f* emits at
#: ``f * COMPUTE_COST`` intervals, which is the signal straggler
#: detection reads
COMPUTE_COST = 0.5
#: wire size of one beat (tiny: transit is negligible next to compute)
HEARTBEAT_BYTES = 256
#: inter-arrival samples the phi estimator keeps per rank
WINDOW = 16
#: beats required before the sample mean replaces ``INTERVAL``
MIN_HISTORY = 3
#: lower bound on the inter-arrival std-dev, as a fraction of
#: ``INTERVAL``; keeps phi finite when the history is metronome-regular
SIGMA_FLOOR = 0.3
#: phi at which a rank is classified ``flaky``
PHI_SUSPECT = 1.5
#: phi at which a rank is classified ``crashed`` (roughly two
#: consecutive missed beats)
PHI_CRASH = 5.0
#: intervals a never-heard-from rank is granted before it is declared
#: crashed-from-start
BOOTSTRAP_TIMEOUT = 3.0
#: silence longer than this many mean intervals resets a rank's history
#: when beats resume (rejoin), so the outage gap does not poison phi
RESET_GAP = 3.0
#: schedule-offset multiple of the fleet median beyond which a rank is late
STRAGGLER_RATIO = 2.0
#: consecutive late assessments before the ``straggler`` verdict
STRAGGLER_PATIENCE = 2
#: healthy assessments a believed-crashed rank must string together
#: before re-admission
REJOIN_CONFIRMATIONS = 2
#: crash suspicions for one rank before the supervisor escalates to a
#: durable checkpoint restore
ESCALATION_FLAPS = 3


class PhiAccrualDetector:
    """Phi-accrual suspicion for one rank (Hayashibara et al. 2004).

    Keeps a sliding window of heartbeat inter-arrival times; ``phi(now)``
    is ``-log10`` of the probability that a correct process would stay
    silent for the current gap under a normal model of that history.
    phi ~ 1 means a 10% chance the rank is fine, ~3 means 0.1%.
    """

    def __init__(self) -> None:
        self.last: float | None = None
        self.intervals: deque[float] = deque(maxlen=WINDOW)

    @property
    def beats_seen(self) -> int:
        return self._beats

    _beats = 0

    def heartbeat(self, arrival: float) -> None:
        """Record one beat arriving at ``arrival`` (monotone times)."""
        if self.last is not None:
            self.intervals.append(max(arrival - self.last, 0.0))
        self.last = arrival
        self._beats += 1

    def reset(self) -> None:
        """Forget the inter-arrival history (rejoin after an outage)."""
        self.intervals.clear()
        self.last = None

    def mean_interval(self) -> float:
        if len(self.intervals) >= MIN_HISTORY:
            return statistics.fmean(self.intervals)
        return INTERVAL

    def _sigma(self) -> float:
        floor = SIGMA_FLOOR * INTERVAL
        if len(self.intervals) >= MIN_HISTORY:
            return max(statistics.pstdev(self.intervals), floor)
        return floor

    def phi(self, now: float) -> float:
        """Suspicion that the rank is gone, evaluated at time ``now``."""
        if self.last is None:
            return 0.0
        gap = now - self.last
        mean = self.mean_interval()
        if gap <= mean:
            return 0.0
        z = (gap - mean) / (self._sigma() * math.sqrt(2.0))
        p_later = 0.5 * math.erfc(z)
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)


@dataclass(frozen=True)
class RankHealth:
    """One rank's assessment at the end of a step window."""

    rank: int
    verdict: str          # one of VERDICTS
    phi: float            # accrued suspicion at assessment time
    lag: float            # schedule-offset ratio vs the fleet median
    beats_seen: int
    last_arrival: float | None


class HealthMonitor:
    """World-wide heartbeat bookkeeping and per-rank classification.

    One :meth:`observe` call per training step: beats that arrived
    within the step window are delivered to the per-rank detectors
    (late beats stay pending and deliver in a later window — which is
    exactly the straggler signature), then every rank is assessed at
    the window's end.
    """

    def __init__(self, world: int) -> None:
        if world < 1:
            raise ValueError("world must be >= 1")
        self.world = world
        self._detectors = [PhiAccrualDetector() for _ in range(world)]
        self._pending: list[tuple[float, int, int]] = []  # (arrival, seq, rank)
        self._offset: list[float | None] = [None] * world
        self._late_streak = [0] * world
        # boot time per rank: the bootstrap grace window counts from
        # here, so a machine provisioned at step 40 is not instantly
        # "crashed-from-start" (elastic growth support)
        self._activated: list[float] = [0.0] * world

    def grow(self, world: int) -> None:
        """Extend the detector arrays to a larger elastic capacity."""
        while self.world < world:
            self._detectors.append(PhiAccrualDetector())
            self._offset.append(None)
            self._late_streak.append(0)
            self._activated.append(0.0)
            self.world += 1

    def activate(self, rank: int, step: int) -> None:
        """A machine for ``rank`` booted at ``step``: start its grace
        clock there instead of at the beginning of the run."""
        if rank >= self.world:
            self.grow(rank + 1)
        self._activated[rank] = step * INTERVAL

    def deactivate(self, rank: int) -> None:
        """Forget a departed rank's history entirely (graceful exit)."""
        self._detectors[rank] = PhiAccrualDetector()
        self._offset[rank] = None
        self._late_streak[rank] = 0
        self._activated[rank] = 0.0

    def observe(self, step: int, arrivals: dict[int, float | None]
                ) -> dict[int, RankHealth]:
        """Ingest the step's beats and assess every rank.

        ``arrivals`` maps rank -> arrival time at the monitor (``None``
        when the beat was lost or never emitted), as produced by
        :meth:`HeartbeatTransport.beats`.
        """
        assess_t = (step + 1) * INTERVAL
        for rank in sorted(arrivals):
            arrival = arrivals[rank]
            if arrival is not None:
                self._pending.append((arrival, step, rank))
        due = sorted(p for p in self._pending if p[0] <= assess_t)
        self._pending = [p for p in self._pending if p[0] > assess_t]
        for arrival, seq, rank in due:
            detector = self._detectors[rank]
            if detector.last is not None and \
                    arrival - detector.last > RESET_GAP * max(
                        detector.mean_interval(), INTERVAL):
                # beats resumed after a long outage: the gap is not an
                # inter-arrival sample, it is a rejoin edge
                detector.reset()
                self._offset[rank] = None
            detector.heartbeat(arrival)
            offset = max(arrival - seq * INTERVAL, 0.0)
            prev = self._offset[rank]
            self._offset[rank] = offset if prev is None \
                else 0.5 * prev + 0.5 * offset
        # assess exactly the ranks the transport reported on — under a
        # fixed world that is every rank; under elastic membership it
        # is the machines that currently exist
        return {rank: self._assess(rank, assess_t)
                for rank in sorted(arrivals)}

    def _base_offset(self) -> float:
        known = [o for o in self._offset if o is not None]
        if not known:
            return COMPUTE_COST * INTERVAL
        return max(statistics.median(known), 1e-9)

    def _assess(self, rank: int, assess_t: float) -> RankHealth:
        detector = self._detectors[rank]
        if detector.beats_seen == 0:
            # never heard from: grant the bootstrap grace (counted from
            # the rank's boot time), then declare it crashed-from-start
            crashed = assess_t - self._activated[rank] \
                >= BOOTSTRAP_TIMEOUT * INTERVAL
            return RankHealth(rank, "crashed" if crashed else "healthy",
                              float("inf") if crashed else 0.0, 1.0, 0, None)
        phi = detector.phi(assess_t)
        offset = self._offset[rank]
        lag = 1.0 if offset is None else offset / self._base_offset()
        if phi >= PHI_CRASH:
            self._late_streak[rank] = 0
            return RankHealth(rank, "crashed", phi, lag,
                              detector.beats_seen, detector.last)
        if lag >= STRAGGLER_RATIO:
            self._late_streak[rank] += 1
        else:
            self._late_streak[rank] = 0
        if self._late_streak[rank] >= STRAGGLER_PATIENCE:
            verdict = "straggler"
        elif phi >= PHI_SUSPECT:
            verdict = "flaky"
        else:
            verdict = "healthy"
        return RankHealth(rank, verdict, phi, lag,
                          detector.beats_seen, detector.last)

    def reset(self) -> None:
        """Fresh detectors (after an escalation restore rewinds time)."""
        self._detectors = [PhiAccrualDetector() for _ in range(self.world)]
        self._pending.clear()
        self._offset = [None] * self.world
        self._late_streak = [0] * self.world
        self._activated = [0.0] * self.world


class HeartbeatTransport:
    """Emits per-step heartbeats over the simulated timed network.

    Each live rank emits one beat after its (fault-stretched) compute;
    the beat is a fire-and-forget message on the
    :class:`~repro.faults.inject.FaultyNetwork` timed path, so link
    slowdowns delay it, downed routes and one-shot loss draws drop it,
    and a crashed rank emits nothing at all.  The transport is the
    *environment*: it reads the plan because it simulates reality — the
    supervisor only ever sees the resulting arrival times.  The monitor
    is rank 0, whose own beat is loopback.
    """

    def __init__(self, runtime: PlanRuntime, world: int,
                 capacity: int | None = None) -> None:
        if capacity is not None and capacity < world:
            raise ValueError("capacity must be >= world")
        self.runtime = runtime
        self.world = world
        self.capacity = capacity or world
        # the fabric is provisioned for the elastic peak up front, so a
        # machine joining mid-run finds its links already modeled
        self.network = FaultyNetwork(
            nvlink_mesh(max(2, self.capacity)), "shm", runtime)

    def beats(self, step: int, ranks: "list[int] | None" = None,
              compute_scale_of: "Callable[[int], float] | None" = None
              ) -> dict[int, float | None]:
        """Arrival time at the monitor of each rank's beat for ``step``.

        ``ranks`` restricts emission to the machines that currently
        exist (elastic membership; default: the fixed world), and
        ``compute_scale_of`` layers a per-rank heterogeneous GPU
        envelope on top of the plan's straggler scaling — a slower
        provisioned machine emits later, which is exactly the signal
        the cross-sectional straggler detector reads.
        """
        runtime = self.runtime
        faults = runtime.faults()
        now = step * INTERVAL
        dead = faults.dead_ranks()
        out: dict[int, float | None] = {}
        emits = []
        for rank in (range(self.world) if ranks is None else sorted(ranks)):
            if rank in dead:
                out[rank] = None     # a dead process emits nothing
                continue
            scale = faults.compute_scale(rank)
            if compute_scale_of is not None:
                scale *= compute_scale_of(rank)
            emits.append((now + COMPUTE_COST * INTERVAL * scale, rank))
        # beats enter the wire in emission order: the store-and-forward
        # pool serves requests in call order, so a straggler's late beat
        # must not queue ahead of a healthy rank's earlier one
        for emit, rank in sorted(emits):
            if rank == 0:
                arrival: float | None = emit   # loopback never drops
            else:
                arrival = self.network.transfer_unreliable(
                    rank, 0, HEARTBEAT_BYTES, emit)
            if arrival is None:
                runtime.counters.heartbeat_misses += 1
                runtime.record("hb_lost", rank=rank)
            else:
                runtime.counters.heartbeats += 1
            out[rank] = arrival
        return out


@dataclass(frozen=True)
class SupervisorDecision:
    """One step's membership decision (the oracle fills it from the plan)."""

    step: int
    participants: tuple[int, ...]       # this step's reduction quorum
    believed_dead: frozenset[int]       # ranks currently suspected crashed
    admitted: tuple[int, ...]           # re-admitted this step (state transfer)
    demoted: tuple[int, ...]            # stragglers excluded this step
    newly_suspected: tuple[int, ...]    # fresh crash suspicions this step
    escalate: bool                      # restore from the durable store


class Supervisor:
    """Observation-driven recovery decisions (never reads the plan).

    Consumes :class:`RankHealth` verdicts and maintains the belief
    state: who is dead, who is rejoining, who keeps flapping.  The
    trainer applies the returned :class:`SupervisorDecision`; all
    events are appended to the runtime's deterministic log.
    """

    def __init__(self, world: int,
                 runtime: PlanRuntime | None = None) -> None:
        self.world = world
        self.runtime = runtime
        self.believed_dead: set[int] = set()
        self.flaps: dict[int, int] = defaultdict(int)
        self._pending_rejoin: dict[int, int] = defaultdict(int)
        self._provisional: set[int] = set()

    def _record(self, kind: str, **detail: object) -> None:
        if self.runtime is not None:
            self.runtime.record(kind, **detail)

    def register_provision(self, rank: int) -> None:
        """A provisioned machine is booting: vet it through the rejoin
        confirmation path (``REJOIN_CONFIRMATIONS`` healthy beats)
        before the coordinator may admit it — world growth is driven by
        observed heartbeats, never by the plan."""
        self._provisional.add(rank)
        self.believed_dead.add(rank)

    def mark_departed(self, rank: int) -> None:
        """Forget a gracefully departed member entirely."""
        self.believed_dead.discard(rank)
        self.flaps.pop(rank, None)
        self._pending_rejoin.pop(rank, None)
        self._provisional.discard(rank)

    def decide(self, step: int, cards: dict[int, RankHealth]
               ) -> SupervisorDecision:
        """One step's verdict-driven membership and escalation decision."""
        counters = self.runtime.counters if self.runtime is not None else None
        admitted: list[int] = []
        newly: list[int] = []
        for rank in sorted(cards):
            card = cards[rank]
            if rank in self.believed_dead:
                if card.verdict == "healthy":
                    self._pending_rejoin[rank] += 1
                    if self._pending_rejoin[rank] \
                            >= REJOIN_CONFIRMATIONS:
                        self.believed_dead.discard(rank)
                        self._pending_rejoin[rank] = 0
                        admitted.append(rank)
                        if rank in self._provisional:
                            self._provisional.discard(rank)
                            self._record("confirm_provision", rank=rank)
                        else:
                            self._record("admit_rejoin", rank=rank)
                            if counters is not None:
                                counters.rejoin_admissions += 1
                else:
                    self._pending_rejoin[rank] = 0
            elif card.verdict == "crashed":
                self.believed_dead.add(rank)
                self.flaps[rank] += 1
                newly.append(rank)
                self._record("suspect_crash", rank=rank)
                if counters is not None:
                    counters.suspected_crashes += 1

        # membership decisions range over the assessed set — the fixed
        # world in classic supervised runs, the machines that currently
        # exist under elastic membership
        assessed = sorted(cards)
        stragglers = [r for r in assessed
                      if r not in self.believed_dead
                      and cards[r].verdict == "straggler"]
        participants = quorum_floor(
            assessed, self.believed_dead, stragglers,
            MIN_QUORUM_FRACTION, lambda r: cards[r].lag)
        demoted = [r for r in stragglers if r not in participants]
        if not participants:   # everyone is believed dead
            participants = assessed[:1] or [0]
        for rank in demoted:
            self._record("demote_straggler", rank=rank)
            if counters is not None:
                counters.straggler_demotions += 1

        escalate = False
        for rank in sorted(self.flaps):
            if self.flaps[rank] >= ESCALATION_FLAPS:
                escalate = True
                self.flaps[rank] = 0
                self._record("escalate", rank=rank)
        return SupervisorDecision(
            step=step,
            participants=tuple(participants),
            believed_dead=frozenset(self.believed_dead),
            admitted=tuple(admitted),
            demoted=tuple(demoted),
            newly_suspected=tuple(newly),
            escalate=escalate,
        )

    def reset(self) -> None:
        """Forget all beliefs (after an escalation restore rewinds time)."""
        self.believed_dead.clear()
        self.flaps.clear()
        self._pending_rejoin.clear()
        self._provisional.clear()
