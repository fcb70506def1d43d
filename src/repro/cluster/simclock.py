"""Resource timelines for the event-free makespan simulator.

The performance model schedules work (transfers, compression kernels,
collective steps) onto *resources* that can each do one thing at a time.
A :class:`Resource` tracks its busy-until horizon; scheduling a task
returns concrete start/end times.  This greedy list-scheduling approach
is deterministic and sufficient for step-time makespans — a full
discrete-event engine is not needed because each training step's task
graph is known up front.

With the fleet scheduler (``repro.sched``) several concurrent jobs
share one pool: tasks carry an optional ``job`` tag so per-job busy
time stays attributable even though the timelines are shared.  The
fleet-schedule certifier (``repro.analysis.sched``, rule SCD003)
additionally needs *exact* conservation evidence — float accumulation
is order-sensitive, so "per-job seconds sum to the pool total" cannot
be checked to tolerance without hiding real accounting leaks.  With
:meth:`ResourcePool.enable_audit` every occupation is appended to a
per-resource ledger of ``(job, duration)`` entries; the certifier
replays those ledgers bit-for-bit against the live float counters and
sums untagged entries in :class:`fractions.Fraction` arithmetic (every
float is an exact rational), so conservation holds with **equality**
or not at all.

Only this module writes a timeline, a per-job counter or a ledger:
:meth:`Resource.schedule` occupies one resource, and :func:`commit_route`
occupies a message's whole store-and-forward route in one call, doing on
each hop exactly what ``schedule`` does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

__all__ = ["Resource", "ResourcePool", "commit_route"]


class Resource:
    """A serially-occupied resource (a link direction, a GPU engine...)."""

    __slots__ = ("name", "busy_until", "busy_time", "busy_by_job", "ledger")

    def __init__(self, name: str, audit: bool = False) -> None:
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0  # total occupied seconds, for utilization stats
        self.busy_by_job: dict[int, float] = {}  # job id -> occupied seconds
        #: exact occupation ledger, ``None`` unless auditing: every
        #: occupation appends ``(job, duration)`` in commit order
        self.ledger: list[tuple[int | None, float]] | None = \
            [] if audit else None

    def schedule(self, ready: float, duration: float,
                 job: int | None = None) -> tuple[float, float]:
        """Occupy the resource for ``duration`` no earlier than ``ready``.

        Returns ``(start, end)``.  When ``job`` is given the occupied
        seconds are additionally attributed to that job.
        """
        if not duration >= 0:   # negative or NaN: either poisons busy_until
            raise ValueError(
                f"resource {self.name}: invalid duration {duration}")
        busy = self.busy_until
        # no max() call: it was 14% of a fleet campaign's CPU time
        # (paired, 9 of 10; CHANGES.md)
        start = busy if busy > ready else ready
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        if job is not None:
            self.busy_by_job[job] = self.busy_by_job.get(job, 0.0) + duration
        if self.ledger is not None:
            self.ledger.append((job, duration))
        return start, end

    # -- conservation audit ---------------------------------------------
    def audit_ledger(self) -> list[tuple[int | None, float]]:
        """The occupation ledger; raises unless auditing is enabled."""
        if self.ledger is None:
            raise RuntimeError(
                f"resource {self.name}: exact accounting needs "
                f"ResourcePool.enable_audit() before simulating")
        return self.ledger

    def replay_float_accumulation(self) -> tuple[float, dict[int, float]]:
        """Re-fold the ledger with float addition, in commit order.

        Returns ``(busy_time, busy_by_job)`` as the ledger implies them.
        The certifier compares these bit-for-bit against the live
        counters: any mutation path that bumps a counter without
        appending to the ledger (or vice versa) is an accounting leak.
        """
        total = 0.0
        by_job: dict[int, float] = {}
        for job, duration in self.audit_ledger():
            total += duration
            if job is not None:
                by_job[job] = by_job.get(job, 0.0) + duration
        return total, by_job


def commit_route(route: Sequence[tuple[Resource, float, float]],
                 ready: float, nbytes: float, rate: float, slow: float,
                 job: int | None,
                 on_hop: Callable[[str, float, float], None] | None = None
                 ) -> float:
    """Occupy every hop of a route in turn (store-and-forward).

    ``route`` holds ``(resource, bandwidth, latency)`` per hop; hop *i*
    starts once the message has left hop *i - 1* and the resource is
    free, and is held for ``slow * (nbytes / (bandwidth * rate) +
    latency)``.  Each hop is :meth:`Resource.schedule` inlined — the same
    duration check, ``busy_until``, ``busy_time``, ``busy_by_job`` and
    ledger writes in the same order, bit for bit — and ``on_hop`` (if
    given) receives the hop's ``(name, start, end)``.  Returns the time
    the message leaves the last hop (``ready`` for an empty route).
    """
    t = ready
    for resource, bandwidth, latency in route:
        duration = slow * (nbytes / (bandwidth * rate) + latency)
        if not duration >= 0:   # negative or NaN: either poisons busy_until
            raise ValueError(
                f"resource {resource.name}: invalid duration {duration}")
        busy = resource.busy_until
        start = busy if busy > t else t
        t = start + duration
        resource.busy_until = t
        resource.busy_time += duration
        if job is not None:
            by_job = resource.busy_by_job
            by_job[job] = by_job.get(job, 0.0) + duration
        if resource.ledger is not None:
            resource.ledger.append((job, duration))
        if on_hop is not None:
            on_hop(resource.name, start, t)
    return t


class ResourcePool:
    """Named collection of resources, created on first use."""

    def __init__(self) -> None:
        self._resources: dict[str, Resource] = {}
        self._audit = False

    def enable_audit(self) -> None:
        """Record exact occupation ledgers on every resource.

        Must be called before any resource is occupied — auditing half a
        simulation would make the conservation ledger lie by omission.
        """
        if any(res.busy_time for res in self._resources.values()):
            raise RuntimeError("enable_audit() after occupations began "
                               "would produce a partial ledger")
        self._audit = True
        for resource in self._resources.values():
            if resource.ledger is None:
                resource.ledger = []

    @property
    def audited(self) -> bool:
        return self._audit

    def get(self, name: str) -> Resource:
        resource = self._resources.get(name)
        if resource is None:
            resource = Resource(name, audit=self._audit)
            self._resources[name] = resource
        return resource

    def utilization(self, horizon: float) -> dict[str, float]:
        """Fraction of ``horizon`` each resource was busy."""
        if horizon <= 0:
            return {name: 0.0 for name in self._resources}
        return {
            name: min(1.0, res.busy_time / horizon)
            for name, res in self._resources.items()
        }

    def busy_seconds(self) -> dict[str, float]:
        """Total occupied seconds per resource (link-load summaries)."""
        return {name: res.busy_time for name, res in self._resources.items()}

    def resources(self) -> dict[str, Resource]:
        """Snapshot of the live resources by name (shared references)."""
        return dict(self._resources)

    def job_busy_seconds(self, job: int) -> dict[str, float]:
        """Seconds each resource spent serving ``job`` (shared-pool use)."""
        return {
            name: res.busy_by_job[job]
            for name, res in self._resources.items()
            if job in res.busy_by_job
        }

    # -- exact (Fraction) conservation accessor ---------------------------
    def exact_untagged_seconds(self) -> dict[str, Fraction]:
        """Exact seconds occupied with no job tag, per resource.

        In a fleet simulation every transfer and kernel belongs to some
        job, so a nonzero entry here is tag leakage — busy time that
        per-job accounting silently loses (certifier rule SCD003).
        """
        result: dict[str, Fraction] = {}
        for name, res in self._resources.items():
            # only untagged entries are folded into Fractions: a clean
            # fleet's ledgers hold none
            untagged = sum((Fraction(duration)
                            for job, duration in res.audit_ledger()
                            if job is None), Fraction(0))
            if untagged:
                result[name] = untagged
        return result
