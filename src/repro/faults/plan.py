"""Declarative, seeded fault plans for the simulated cluster.

A :class:`FaultPlan` is a step-indexed schedule of :class:`FaultEvent`
records — link slowdowns and outages, transient message loss, payload
corruption, straggler compute scaling, worker crash/rejoin — plus a
seed.  Plans are pure data: nothing here touches the network or the
collectives.  A :class:`PlanRuntime` binds a plan to an explicit
``numpy.random.Generator`` and an append-only :class:`FaultRecord` log,
so a campaign replayed under the same seed produces a *byte-identical*
event log (:meth:`PlanRuntime.log_bytes` is the canonical encoding the
CI determinism check compares).

The injection machinery that makes the timed network and the real-numpy
data path observe a plan lives in :mod:`repro.faults.inject`; the
recovery knobs live in :mod:`repro.faults.policy`.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from .policy import FaultCounters, ResiliencePolicy

__all__ = [
    "FAULT_KINDS", "FaultEvent", "FaultPlan", "StepFaults", "FaultRecord",
    "PlanRuntime", "link_slowdown", "link_outage", "message_loss",
    "payload_corruption", "straggler", "crash", "preempt_warning",
    "provision", "CAMPAIGNS", "FIXED_WORLD_CAMPAIGNS", "make_campaign",
    "oracle_guard",
]

#: every fault class the engine can inject.  ``preempt_warning`` and
#: ``provision`` are *control-plane* events: the cloud provider delivers
#: them to the job explicitly (a spot reclaim notice, a scale-up
#: callback), so — unlike the physics kinds — reading them is not an
#: oracle access (see :meth:`StepFaults.preempt_notices`).
FAULT_KINDS = ("link_slow", "link_down", "message_loss", "payload_corrupt",
               "straggler", "crash", "preempt_warning", "provision")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled degradation, active on steps ``[start, stop)``.

    ``stop=None`` means the fault persists for the rest of the run.
    ``src``/``dst`` select a directed route; ``None`` matches any
    endpoint (so ``src=3, dst=None`` degrades everything rank 3 sends,
    and ``src=None, dst=None`` degrades every route).  Routes are
    matched symmetrically for link faults — a cable does not care about
    direction — and directionally for message-level faults.
    """

    kind: str
    start: int
    stop: int | None = None
    rank: int | None = None        # straggler / crash / elastic subject
    src: int | None = None         # route endpoints
    dst: int | None = None
    factor: float = 1.0            # slowdown multiplier (link_slow, straggler)
    probability: float = 0.0       # per-message probability (loss, corrupt)
    deadline_steps: int = 0        # drain window (preempt_warning)
    gpu: str | None = None         # machine envelope (provision)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.start < 0:
            raise ValueError(f"{self.kind}: start step must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            if self.kind == "crash":
                raise ValueError(
                    f"crash: rejoin step {self.stop} must be > crash "
                    f"step {self.start}")
            raise ValueError(f"{self.kind}: stop must be > start")
        if self.kind in ("link_slow", "straggler") and self.factor < 1.0:
            raise ValueError(f"{self.kind}: factor must be >= 1")
        if self.kind in ("message_loss", "payload_corrupt") \
                and not 0.0 <= self.probability < 1.0:
            raise ValueError(f"{self.kind}: probability must be in [0, 1)")
        if self.kind in ("straggler", "crash", "preempt_warning",
                         "provision") and self.rank is None:
            raise ValueError(f"{self.kind}: rank is required")
        if self.kind == "preempt_warning":
            if self.deadline_steps <= 0:
                raise ValueError(
                    f"preempt_warning: deadline_steps must be > 0 "
                    f"(got {self.deadline_steps}); a reclaim notice "
                    f"with no drain window is just a crash")
            if self.stop is not None:
                raise ValueError("preempt_warning: stop is implied by "
                                 "the deadline (start + deadline_steps)")
        if self.kind == "provision":
            if self.gpu is None:
                raise ValueError("provision: a gpu spec is required")
            from repro.cluster.gpu import GPUS
            if self.gpu not in GPUS:
                raise ValueError(f"provision: unknown gpu {self.gpu!r}; "
                                 f"choose from {sorted(GPUS)}")
            if self.stop is not None:
                raise ValueError("provision: stop is meaningless (a "
                                 "provisioned machine stays until "
                                 "preempted)")

    @property
    def deadline(self) -> int:
        """Absolute reclaim step of a ``preempt_warning`` event."""
        return self.start + self.deadline_steps

    def active(self, step: int) -> bool:
        return step >= self.start and (self.stop is None or step < self.stop)

    def matches_route(self, src: int, dst: int, directed: bool = True) -> bool:
        """Whether the event applies to a ``src -> dst`` message."""
        if self._endpoint_match(src, dst):
            return True
        return not directed and self._endpoint_match(dst, src)

    def _endpoint_match(self, src: int, dst: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "start": self.start}
        for name in ("stop", "rank", "src", "dst"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.kind in ("link_slow", "straggler"):
            out["factor"] = self.factor
        if self.kind in ("message_loss", "payload_corrupt"):
            out["probability"] = self.probability
        if self.kind == "preempt_warning":
            out["deadline_steps"] = self.deadline_steps
        if self.kind == "provision":
            out["gpu"] = self.gpu
        return out


# -- event constructors ------------------------------------------------------

def link_slowdown(start: int, stop: int | None, factor: float,
                  src: int | None = None, dst: int | None = None) -> FaultEvent:
    """Degrade the route(s) by ``factor`` (2.0 = half bandwidth)."""
    return FaultEvent("link_slow", start, stop, src=src, dst=dst,
                      factor=factor)


def link_outage(start: int, stop: int | None,
                src: int | None = None, dst: int | None = None) -> FaultEvent:
    """Take the route(s) down entirely (transfers cannot complete)."""
    return FaultEvent("link_down", start, stop, src=src, dst=dst)


def message_loss(start: int, stop: int | None, probability: float,
                 src: int | None = None, dst: int | None = None) -> FaultEvent:
    """Drop each matching message independently with ``probability``."""
    return FaultEvent("message_loss", start, stop, src=src, dst=dst,
                      probability=probability)


def payload_corruption(start: int, stop: int | None, probability: float,
                       src: int | None = None,
                       dst: int | None = None) -> FaultEvent:
    """Corrupt each matching payload independently with ``probability``."""
    return FaultEvent("payload_corrupt", start, stop, src=src, dst=dst,
                      probability=probability)


def straggler(start: int, stop: int | None, rank: int,
              factor: float) -> FaultEvent:
    """Scale ``rank``'s compute time by ``factor`` (1.5 = 50% slower)."""
    return FaultEvent("straggler", start, stop, rank=rank, factor=factor)


def crash(rank: int, at: int, rejoin: int | None = None) -> FaultEvent:
    """Kill ``rank`` at step ``at``; it rejoins at ``rejoin`` (or never)."""
    return FaultEvent("crash", at, rejoin, rank=rank)


def preempt_warning(rank: int, at: int, deadline_steps: int) -> FaultEvent:
    """Spot reclaim notice delivered to ``rank`` at step ``at``.

    The machine must drain and leave the membership within
    ``deadline_steps`` (the "2-minute warning", in step units); at
    ``at + deadline_steps`` the provider reclaims it unconditionally —
    a rank still present then is dead, exactly like a crash with no
    rejoin.
    """
    return FaultEvent("preempt_warning", at, None, rank=rank,
                      deadline_steps=deadline_steps)


def provision(rank: int, at: int, gpu_spec: str = "RTX3090") -> FaultEvent:
    """A new machine for ``rank`` boots at step ``at``.

    ``rank`` must extend the plan's initial world (capacity slots are
    ``world, world + 1, ...``); ``gpu_spec`` names its compute envelope
    in :data:`repro.cluster.gpu.GPUS`, so autoscaled fleets are
    heterogeneous by construction.
    """
    return FaultEvent("provision", at, None, rank=rank, gpu=gpu_spec)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of fault events over ``world`` ranks."""

    name: str
    world: int
    seed: int
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        if self.world < 1:
            raise ValueError("world must be >= 1")
        provisions = self._validate_provisions()
        capacity = self.world + len(provisions)
        for event in self.events:
            if event.kind == "provision":
                continue
            for attr in ("rank", "src", "dst"):
                value = getattr(event, attr)
                if value is not None and not 0 <= value < capacity:
                    raise ValueError(
                        f"{event.kind}: {attr}={value} out of range for "
                        f"world {self.world} (+{len(provisions)} "
                        f"provisioned)")
        self._validate_warnings()

    def _validate_provisions(self) -> list[FaultEvent]:
        """Provision events must extend the world, uniquely, in order."""
        provisions = sorted((e for e in self.events if e.kind == "provision"),
                            key=lambda e: (e.rank, e.start))
        seen: set[int] = set()
        for event in provisions:
            assert event.rank is not None
            if event.rank < self.world:
                raise ValueError(
                    f"provision: rank {event.rank} is already in the "
                    f"initial world of {self.world} (double-admit)")
            if event.rank in seen:
                raise ValueError(
                    f"provision: rank {event.rank} provisioned twice "
                    f"(double-admit)")
            seen.add(event.rank)
        expected = list(range(self.world, self.world + len(provisions)))
        got = sorted(seen)
        if got != expected:
            raise ValueError(
                f"provision: ranks must extend the world contiguously "
                f"(expected {expected}, got {got})")
        by_rank = {e.rank: e for e in provisions}
        for event in self.events:
            if event.kind not in ("crash", "straggler", "preempt_warning"):
                continue
            birth = by_rank.get(event.rank)
            if birth is not None and event.start < birth.start:
                raise ValueError(
                    f"{event.kind}: rank {event.rank} at step "
                    f"{event.start} overlaps its provision at step "
                    f"{birth.start} (machine does not exist yet)")
        return provisions

    def _validate_warnings(self) -> None:
        warned: set[int] = set()
        for event in self.events:
            if event.kind != "preempt_warning":
                continue
            if event.rank in warned:
                raise ValueError(
                    f"preempt_warning: rank {event.rank} warned twice "
                    f"(a reclaimed machine cannot be re-warned)")
            warned.add(event.rank)  # type: ignore[arg-type]

    @property
    def max_world(self) -> int:
        """Peak membership capacity: initial world plus provisioned slots."""
        return self.world + sum(1 for e in self.events
                                if e.kind == "provision")

    def at_step(self, step: int) -> "StepFaults":
        """The faults active at ``step`` (a queryable view)."""
        return StepFaults(step, self.world,
                          tuple(e for e in self.events if e.active(step)))

    def to_dict(self) -> dict:
        return {"name": self.name, "world": self.world, "seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        events = tuple(FaultEvent(**e) for e in data.get("events", []))
        return FaultPlan(data["name"], data["world"], data["seed"], events)


# -- oracle tripwire ---------------------------------------------------------
#
# The fault plan is the simulation's *physics*: injectors and transports
# legitimately read it to decide what actually happens.  Recovery
# *decisions* in supervised mode must not — they may only see observed
# heartbeats.  The guard makes that auditable: code wrapped in
# ``oracle_guard()`` collects the name of every StepFaults query issued
# while it is active, and the HLT battery asserts the list stays empty.

_ORACLE_GUARD: list[str] | None = None


@contextlib.contextmanager
def oracle_guard() -> Iterator[list[str]]:
    """Record every :class:`StepFaults` oracle query made inside."""
    global _ORACLE_GUARD
    prev = _ORACLE_GUARD
    reads: list[str] = []
    _ORACLE_GUARD = reads
    try:
        yield reads
    finally:
        _ORACLE_GUARD = prev


def _oracle_note(name: str) -> None:
    if _ORACLE_GUARD is not None:
        _ORACLE_GUARD.append(name)


def _combined_probability(events, kind, src, dst) -> float:
    """1 - prod(1 - p) over matching events (independent hazards)."""
    keep = 1.0
    for event in events:
        if event.kind == kind and event.matches_route(src, dst):
            keep *= 1.0 - event.probability
    return 1.0 - keep


@dataclass(frozen=True)
class StepFaults:
    """Queryable snapshot of the faults active at one step."""

    step: int
    world: int
    events: tuple[FaultEvent, ...]

    def compute_scale(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = healthy)."""
        _oracle_note("compute_scale")
        scale = 1.0
        for event in self.events:
            if event.kind == "straggler" and event.rank == rank:
                scale *= event.factor
        return scale

    def dead_ranks(self) -> set[int]:
        _oracle_note("dead_ranks")
        dead = {e.rank for e in self.events
                if e.kind == "crash" and e.rank is not None}
        # past its drain deadline, a warned machine is reclaimed by the
        # provider whether or not the job drained it — spot physics
        dead |= {e.rank for e in self.events
                 if e.kind == "preempt_warning" and e.rank is not None
                 and self.step >= e.deadline}
        return dead

    def loss_probability(self, src: int, dst: int) -> float:
        _oracle_note("loss_probability")
        return _combined_probability(self.events, "message_loss", src, dst)

    def corrupt_probability(self, src: int, dst: int) -> float:
        _oracle_note("corrupt_probability")
        return _combined_probability(self.events, "payload_corrupt", src, dst)

    def link_slow_factor(self, src: int, dst: int) -> float:
        _oracle_note("link_slow_factor")
        factor = 1.0
        for event in self.events:
            if event.kind == "link_slow" \
                    and event.matches_route(src, dst, directed=False):
                factor *= event.factor
        return factor

    def route_down(self, src: int, dst: int) -> bool:
        _oracle_note("route_down")
        return any(e.kind == "link_down"
                   and e.matches_route(src, dst, directed=False)
                   for e in self.events)

    # -- control-plane notices (NOT oracle reads) ---------------------------
    #
    # Preemption warnings and provisioning callbacks are messages a real
    # cluster *receives* — the cloud delivers the 2-minute reclaim
    # notice to the instance, the autoscaler announces the machine it
    # just booted.  Supervised decision paths may therefore consume
    # these without tripping ``oracle_guard`` (HLT003/ELA batteries
    # still certify zero reads of the physics queries above).

    def preempt_notices(self) -> tuple[tuple[int, int], ...]:
        """Delivered reclaim notices: ``(rank, deadline_step)`` pairs."""
        return tuple(sorted(
            (e.rank, e.deadline) for e in self.events
            if e.kind == "preempt_warning" and e.rank is not None))

    def provision_notices(self) -> tuple[tuple[int, int, str], ...]:
        """Machines up by this step: ``(rank, boot_step, gpu)`` triples."""
        return tuple(sorted(
            (e.rank, e.start, e.gpu or "") for e in self.events
            if e.kind == "provision" and e.rank is not None))


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault occurrence (the unit of the determinism log)."""

    step: int
    kind: str
    detail: tuple[tuple[str, object], ...]   # sorted key/value pairs

    def to_dict(self) -> dict:
        out: dict = {"step": self.step, "kind": self.kind}
        out.update(dict(self.detail))
        return out


def records_of(records: Iterable[FaultRecord], kind: str
               ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Every ``kind`` occurrence of a canonical log as ``(step, detail)``.

    The one reader of the record log: log order, ``detail`` rebuilt as
    a dict once per matching record.  Takes any iterable of records so
    audits can run over an edited (tampered) log as well as a live one.
    """
    for rec in records:
        if rec.kind == kind:
            yield rec.step, dict(rec.detail)


class PlanRuntime:
    """A plan bound to its generator, policy, counters and event log.

    One runtime drives one campaign: :meth:`advance` moves the step
    cursor (the injectors read :meth:`faults` for the current step), all
    randomness flows through ``self.rng`` (seeded from the plan), and
    every injected occurrence is appended to ``self.records`` so two
    runs under one seed can be compared byte-for-byte.
    """

    def __init__(self, plan: FaultPlan,
                 policy: ResiliencePolicy | None = None):
        self.plan = plan
        self.policy = policy or ResiliencePolicy()
        self.rng = np.random.default_rng(plan.seed)
        self.counters = FaultCounters()
        self.records: list[FaultRecord] = []
        self.step = 0
        self._faults = plan.at_step(0)
        self._dead_prev: set[int] = set()

    def advance(self, step: int | None = None) -> StepFaults:
        """Move to ``step`` (default: next); logs crash/rejoin edges."""
        self.step = self.step + 1 if step is None else step
        self._faults = self.plan.at_step(self.step)
        dead = self._faults.dead_ranks()
        reclaimed = {e.rank for e in self._faults.events
                     if e.kind == "preempt_warning" and e.rank is not None
                     and self.step >= e.deadline}
        for rank in sorted(dead - self._dead_prev):
            if rank in reclaimed:
                # the provider took the machine back at its deadline —
                # a distinct log edge so drain audits can tell a spot
                # reclaim from an unplanned crash
                self.record("spot_reclaim", rank=rank)
                self.counters.spot_reclaims += 1
            else:
                self.record("crash", rank=rank)
                self.counters.crashes += 1
        for rank in sorted(self._dead_prev - dead):
            self.record("rejoin", rank=rank)
            self.counters.rejoins += 1
        self._dead_prev = dead
        if dead:
            self.counters.crashed_steps += 1
        return self._faults

    def faults(self) -> StepFaults:
        """The active faults at the current step cursor."""
        return self._faults

    def record(self, kind: str, **detail) -> None:
        """Append one occurrence to the deterministic event log."""
        self.records.append(
            FaultRecord(self.step, kind, tuple(sorted(detail.items())))
        )

    def records_of(self, kind: str) -> Iterator[tuple[int, dict[str, Any]]]:
        """This run's ``kind`` records as ``(step, detail)``, in log order."""
        return records_of(self.records, kind)

    def first_step(self, kind: str, rank: int) -> int | None:
        """Step of the first ``kind`` record about ``rank``, if any."""
        return next((step for step, detail in self.records_of(kind)
                     if detail.get("rank") == rank), None)

    def log_bytes(self) -> bytes:
        """Canonical byte encoding of the event log (determinism check)."""
        payload = {
            "plan": self.plan.to_dict(),
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")


# -- named campaigns ---------------------------------------------------------

def _straggler_campaign(world: int, seed: int) -> FaultPlan:
    """A tolerated 1.6x straggler plus a transient one over budget.

    The persistent straggler stays under the default 2.0x budget (the
    step just waits); the transient 2.5x one exceeds it, so the policy
    demotes that rank to carry-buffer quorum mode for those steps.
    """
    last = world - 1
    events = [straggler(2, None, rank=last, factor=1.6)]
    if world > 2:
        events.append(straggler(6, 10, rank=0, factor=2.5))
    return FaultPlan("straggler", world, seed, tuple(events))


def _lossy_link_campaign(world: int, seed: int) -> FaultPlan:
    """Transient loss + corruption on every route, one slow link."""
    events = (
        message_loss(1, None, probability=0.12),
        payload_corruption(1, None, probability=0.08),
        link_slowdown(3, None, factor=2.0, src=0, dst=1),
    )
    return FaultPlan("lossy-link", world, seed, events)


def _crash_rejoin_campaign(world: int, seed: int) -> FaultPlan:
    """The last rank dies mid-run and rejoins a few steps later."""
    last = world - 1
    events = [crash(rank=last, at=4, rejoin=9)]
    if world > 3:
        events.append(straggler(9, None, rank=0, factor=1.2))
    return FaultPlan("crash-rejoin", world, seed, tuple(events))


#: campaign name -> plan factory (world, seed) -> FaultPlan
CAMPAIGNS: dict = {
    "straggler": _straggler_campaign,
    "lossy-link": _lossy_link_campaign,
    "crash-rejoin": _crash_rejoin_campaign,
}

#: the campaigns above, captured before ``faults.elastic`` registers its
#: world-resizing ones into :data:`CAMPAIGNS`: the batteries that script
#: a fixed world (liveness, FLT003, CI's chaos step) sweep exactly these
FIXED_WORLD_CAMPAIGNS = tuple(sorted(CAMPAIGNS))


def make_campaign(name: str, world: int = 4, seed: int = 0) -> FaultPlan:
    """Build a named chaos campaign for ``world`` ranks."""
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown campaign {name!r}; "
                       f"choose from {sorted(CAMPAIGNS)}")
    return CAMPAIGNS[name](world, seed)
