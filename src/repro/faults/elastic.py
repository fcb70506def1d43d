"""Elastic membership: spot-preemption drain and autoscale growth.

Every fault runtime owns an :class:`ElasticCoordinator`, the control
plane that answers "who is in this step".  A plan without control-plane
events never delivers it a notice, so a fixed world is simply the
coordinator at rest; two cloud-economics events change the world:

* **Spot preemption** — the provider delivers a ``preempt_warning``
  (the "2-minute warning") to one machine; the trainer keeps the rank
  participating while the engine's :class:`~repro.collectives.partial.
  PartialAllreduce` carries drain, checkpoints through the attached
  :class:`~repro.faults.store.CheckpointStore`, and removes the rank
  from membership *before* the deadline.  A rank that cannot drain in
  time (quorum floor, concurrent crash) degrades to the crash path: the
  plan's physics kills it at the deadline and the carry machinery
  absorbs it, so behavior is never worse than a crash.
* **Autoscale provisioning** — a ``provision`` event boots a fresh
  machine with a heterogeneous GPU envelope from
  :data:`repro.cluster.gpu.GPUS`.  The new rank is admitted through the
  rejoin state-transfer path (warm start from a live peer); in
  supervised mode admission additionally waits for the
  :class:`~repro.faults.health.Supervisor` to confirm the machine's
  heartbeats healthy, so growth is observation-driven, not oracular.

The coordinator consumes only *delivered notices*
(:meth:`~repro.faults.plan.StepFaults.preempt_notices` /
:meth:`~repro.faults.plan.StepFaults.provision_notices`) plus the
engine's drain status — never the fault physics — so the supervised
mode's zero-oracle-read guarantee (HLT003) survives elasticity.  Every
membership transition lands in the runtime's canonical byte-identical
event log; the ELA001..ELA005 battery in :mod:`repro.analysis.elastic`
certifies the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.cluster.gpu import get_gpu

from .plan import (CAMPAIGNS, FaultPlan, FaultRecord, PlanRuntime, StepFaults,
                   preempt_warning, provision, records_of, straggler)
from .policy import MIN_QUORUM_FRACTION

__all__ = ["DEFAULT_GPU", "DRAIN_TOLERANCE", "ElasticDecision",
           "ElasticCoordinator", "fleet_alpha_scale",
           "gpu_compute_scale", "check_drain_protocol",
           "spot_churn_campaign", "autoscale_burst_campaign"]

#: the homogeneous baseline fleet (the paper's commodity 8x3090 testbed)
DEFAULT_GPU = "RTX3090"

#: clamp on :func:`fleet_alpha_scale` — respecs retune the error budget
#: without leaving the paper's calibrated regime
ALPHA_SCALE_BOUNDS = (0.75, 1.5)

#: banked carry mass at or below this is "drained" — real gradient
#: norms are many orders of magnitude larger; dead members bank exact
#: zeros, which must not block composition changes
DRAIN_TOLERANCE = 1e-12


def gpu_compute_scale(gpu: str) -> float:
    """Compute-time multiplier of ``gpu`` relative to the reference fleet.

    Anchored on the measured ResNet50 throughput column of Table 1 (the
    calibration every simulated compute time already uses): > 1 means
    the machine is slower, so its heartbeats emit later — a provisioned
    RTX 2080 Ti looks like a mild persistent straggler to the detector,
    exactly as it would in a real mixed fleet.
    """
    return (get_gpu(DEFAULT_GPU).resnet50_imgs_per_s
            / get_gpu(gpu).resnet50_imgs_per_s)


def fleet_alpha_scale(gpus: Iterable[str]) -> float:
    """Adaptive error-budget multiplier for a fleet composition.

    A faster fleet finishes compute sooner and sits communication-bound,
    so the adaptive controller may spend more quantization error to buy
    wire bytes (larger effective ``alpha``); a slower fleet hides
    communication behind compute and should keep gradients crisper.
    The scale is the fleet's mean Table 1 throughput over the reference
    GPU's, clamped to :data:`ALPHA_SCALE_BOUNDS`.
    """
    names = list(gpus)
    if not names:
        return 1.0
    ref = get_gpu(DEFAULT_GPU).resnet50_imgs_per_s
    mean = sum(get_gpu(g).resnet50_imgs_per_s for g in names) / len(names)
    lo, hi = ALPHA_SCALE_BOUNDS
    return min(hi, max(lo, mean / ref))


@dataclass(frozen=True)
class ElasticDecision:
    """The coordinator's membership verdict at the top of one step."""

    step: int
    members: tuple[int, ...]     # the world reducing this step
    joined: tuple[int, ...]      # admitted this step (need warm starts)
    draining: tuple[int, ...]    # warned members racing their deadline
    deferred: tuple[int, ...]    # booted machines waiting on drain/confirm


class ElasticCoordinator:
    """Membership state machine of one fault runtime (control plane).

    Holds the authoritative member set, the draining map (member ->
    absolute deadline step), the departed set and the per-rank GPU
    envelopes.  All decisions are deterministic functions of delivered
    notices, supervisor confirmations and the engine drain flag, and
    every transition is recorded into the runtime's canonical log.

    Composition changes only when the engine holds no banked carry
    mass: :class:`~repro.collectives.partial.PartialAllreduce` carries
    are keyed by buffer index, so resizing the buffer list with mass
    banked would orphan delivered-late gradients (ELA001 certifies none
    ever is).  Graceful exits additionally respect the quorum floor —
    shrinking below ``MIN_QUORUM_FRACTION`` of the initial world is
    deferred until growth restores headroom (the provider can still
    force-reclaim at the deadline; that is the degrade-to-crash path).
    """

    def __init__(self, runtime: PlanRuntime, world: int,
                 supervised: bool = False) -> None:
        plan = runtime.plan
        if plan.world != world:
            raise ValueError(f"plan is for world {plan.world}, "
                             f"coordinator built for {world}")
        self.runtime = runtime
        self.world = world
        self.capacity = plan.max_world
        self.supervised = supervised
        self.members: set[int] = set(range(world))
        self.rank_gpus: dict[int, str] = {r: DEFAULT_GPU
                                          for r in range(world)}
        self.draining: dict[int, int] = {}   # member -> deadline step
        self.departed: set[int] = set()
        self.degraded: set[int] = set()      # missed deadline: crash path
        self._pending: dict[int, str] = {}   # booted, not yet admitted
        self._confirmed: set[int] = set()    # supervisor-confirmed machines
        self._announced: set[int] = set()
        self._warned: set[int] = set()
        #: per-step membership trace, ``(step, members)`` — ELA001 input
        self.history: list[tuple[int, tuple[int, ...]]] = []
        self.min_members = max(1, math.ceil(
            MIN_QUORUM_FRACTION * world))

    # -- queries ------------------------------------------------------------
    def member_list(self) -> list[int]:
        return sorted(self.members)

    def machine_ranks(self) -> list[int]:
        """Every machine that exists: members plus booting pending ones.

        These are the heartbeat emitters in supervised mode — a
        provisioned machine beats while the supervisor vets it, exactly
        like a rejoining rank.
        """
        return sorted(self.members | set(self._pending))

    def gpu_scale(self, rank: int) -> float:
        """Heterogeneous compute envelope of ``rank`` (1.0 = reference).

        Pending machines already carry their envelope — a slow GPU is
        slow while the supervisor vets it, too.
        """
        gpu = self.rank_gpus.get(rank) or self._pending.get(rank, DEFAULT_GPU)
        return gpu_compute_scale(gpu)

    # -- per-step protocol --------------------------------------------------
    def poll_notices(self, step: int, faults: StepFaults) -> tuple[int, ...]:
        """Ingest this step's delivered notices; returns new machines.

        New provisions move to the pending (booting) set and are
        recorded; new warnings start the drain clock on members.  A
        warning for a machine that never joined simply cancels it.
        """
        runtime = self.runtime
        booted: list[int] = []
        for rank, _, gpu in faults.provision_notices():
            if rank in self._announced:
                continue
            self._announced.add(rank)
            self._pending[rank] = gpu
            booted.append(rank)
            runtime.record("provision", rank=rank, gpu=gpu)
            runtime.counters.provisions += 1
        for rank, deadline in faults.preempt_notices():
            if rank in self._warned:
                continue
            self._warned.add(rank)
            if rank not in self.members:
                # warned before admission: the machine is reclaimed
                # without ever having joined the world
                self._pending.pop(rank, None)
                self._confirmed.discard(rank)
                self.departed.add(rank)
                runtime.record("preempt_unjoined", rank=rank)
                continue
            self.draining[rank] = deadline
            runtime.record("preempt_warning", rank=rank, deadline=deadline)
            runtime.counters.preempt_warnings += 1
        return tuple(booted)

    def confirm(self, ranks: Iterable[int]) -> None:
        """Supervisor-confirmed machines (healthy-beat admissions)."""
        for rank in ranks:
            if rank in self._pending:
                self._confirmed.add(rank)

    def admit(self, step: int, drained: bool) -> ElasticDecision:
        """Grow the world where gates allow; snapshot the membership.

        A pending machine joins once (a) the engine is drained and (b)
        in supervised mode, the supervisor has confirmed its beats.
        Each rank is admitted at most once ever — re-announcements and
        re-confirmations cannot double-admit (property-tested).
        """
        runtime = self.runtime
        joined: list[int] = []
        if drained:
            for rank in sorted(self._pending):
                if self.supervised and rank not in self._confirmed:
                    continue
                if rank in self.members or rank in self.departed:
                    del self._pending[rank]   # double-admit guard
                    continue
                gpu = self._pending.pop(rank)
                self._confirmed.discard(rank)
                self.members.add(rank)
                self.rank_gpus[rank] = gpu
                joined.append(rank)
                runtime.record("admit_provisioned", rank=rank, gpu=gpu)
                runtime.counters.provision_admissions += 1
        members = tuple(sorted(self.members))
        self.history.append((step, members))
        return ElasticDecision(step=step, members=members,
                               joined=tuple(joined),
                               draining=tuple(sorted(self.draining)),
                               deferred=tuple(sorted(self._pending)))

    def end_step(self, step: int, drained: bool,
                 dead: set[int]) -> tuple[int, ...]:
        """Graceful exits after the step's reduction landed.

        A draining rank departs once the engine holds no banked carry
        mass (its in-flight contribution is fully delivered), provided
        it is alive, ahead of its deadline, and leaving keeps the world
        at or above the quorum floor.  A rank still present at its
        deadline is recorded as a missed drain and degrades to the
        existing crash path — the plan's physics has already killed it.
        """
        runtime = self.runtime
        exited: list[int] = []
        for rank in sorted(self.draining):
            deadline = self.draining[rank]
            can_exit = (rank not in dead and drained and step < deadline
                        and len(self.members) - 1 >= self.min_members)
            if can_exit:
                del self.draining[rank]
                self.members.discard(rank)
                self.departed.add(rank)
                exited.append(rank)
                runtime.record("spot_exit", rank=rank, deadline=deadline)
                runtime.counters.graceful_exits += 1
            elif step >= deadline:
                del self.draining[rank]
                self.degraded.add(rank)
                runtime.record("drain_missed", rank=rank, deadline=deadline)
                runtime.counters.drain_missed += 1
        if exited:
            runtime.record("membership", members=",".join(
                str(r) for r in sorted(self.members)))
        return tuple(exited)


# -- drain-protocol audit (pure; ELA002 and its tamper tests) ---------------

def check_drain_protocol(plan: FaultPlan,
                         records: "Iterable[FaultRecord]") -> list[str]:
    """Audit a campaign's canonical log against the drain protocol.

    Pure function over the plan and the deterministic record log, so a
    tampered run — a warned rank that keeps participating past its
    deadline, a departed rank that reappears — is caught from the log
    alone.  Returns human-readable violation messages (empty = clean).
    """
    records = list(records)
    violations: list[str] = []
    exits: dict[int, int] = {}
    for step, detail in records_of(records, "spot_exit"):
        rank = int(detail["rank"])
        if rank in exits:
            violations.append(
                f"rank {rank} exited twice (steps {exits[rank]} "
                f"and {step})")
        exits.setdefault(rank, step)
    missed: dict[int, int] = {}
    for step, detail in records_of(records, "drain_missed"):
        missed.setdefault(int(detail["rank"]), step)
    unjoined = {int(detail["rank"]) for _, detail
                in records_of(records, "preempt_unjoined")}
    for event in plan.events:
        if event.kind != "preempt_warning" or event.rank is None:
            continue
        rank, deadline = event.rank, event.deadline
        if rank in unjoined:
            continue
        if rank in exits:
            if exits[rank] >= deadline:
                violations.append(
                    f"rank {rank} exited at step {exits[rank]}, at or "
                    f"past its deadline {deadline} (kept sending after "
                    f"the provider reclaimed the machine)")
            continue
        if rank in missed:
            if missed[rank] != deadline:
                violations.append(
                    f"rank {rank} recorded drain_missed at step "
                    f"{missed[rank]} but its deadline is {deadline}")
            continue
        violations.append(
            f"rank {rank} was warned at step {event.start} (deadline "
            f"{deadline}) but neither drained out nor degraded to the "
            f"crash path")
    # a departed rank must never reappear in a later membership snapshot
    for step, detail in records_of(records, "membership"):
        present = {int(r) for r in detail["members"].split(",") if r != ""}
        for rank, exit_step in exits.items():
            if step > exit_step and rank in present:
                violations.append(
                    f"departed rank {rank} (exited step {exit_step}) "
                    f"reappears in the membership at step {step}")
    return violations


# -- named campaigns --------------------------------------------------------

def spot_churn_campaign(world: int = 4, seed: int = 0) -> FaultPlan:
    """Two spot preemptions with drain windows, two warm-started joins.

    The fleet loses its two highest initial ranks to reclaim notices
    (each with a multi-step "2-minute" drain window) and gains a V100
    and an RTX 2080 Ti mid-run — net capacity roughly recovers while
    composition churns, which is exactly the regime adaptive respec is
    for.  A mild straggler rides along so the drain protocol is
    exercised alongside ordinary degradation.
    """
    if world < 3:
        raise ValueError("spot-churn needs world >= 3 (two preemptions "
                         "must leave a quorum)")
    events = (
        preempt_warning(rank=world - 1, at=4, deadline_steps=4),
        provision(rank=world, at=6, gpu_spec="V100"),
        preempt_warning(rank=world - 2, at=10, deadline_steps=4),
        provision(rank=world + 1, at=12, gpu_spec="RTX2080Ti"),
        straggler(8, 11, rank=0, factor=1.4),
    )
    return FaultPlan("spot-churn", world, seed, events)


def autoscale_burst_campaign(world: int = 4, seed: int = 0) -> FaultPlan:
    """A scale-up burst, then one machine is preempted back out.

    The autoscaler boots two heterogeneous machines in quick
    succession early in the run; later the spot market takes the V100
    back under a warning.  Growth-dominated: the world ends larger
    than it started, and every joiner was warm-started mid-run.
    """
    events = (
        provision(rank=world, at=3, gpu_spec="V100"),
        provision(rank=world + 1, at=5, gpu_spec="A6000"),
        preempt_warning(rank=world, at=12, deadline_steps=4),
    )
    return FaultPlan("autoscale-burst", world, seed, events)


CAMPAIGNS["spot-churn"] = spot_churn_campaign
CAMPAIGNS["autoscale-burst"] = autoscale_burst_campaign
