"""Resilience policies: what training does about injected faults.

A :class:`ResiliencePolicy` holds the two recovery switches: CRC
verification of payloads, and whether an exhausted retry budget raises.
The rest of the recovery rules are module constants: bounded retry with
exponential :func:`backoff`, the straggler budget beyond which a rank
is demoted to quorum (carry-buffer) mode, and the minimum quorum the
engine will accept.  Pure decision logic
lives here too: :func:`select_members` (who contributes this step, over
the one :func:`quorum_floor` rule the heartbeat supervisor shares) and
:func:`plan_fallback` (how the timed collective routes around dead
links).  The mechanisms that *apply* these decisions are in
:mod:`repro.faults.inject`, :mod:`repro.core.engine` and
:mod:`repro.training.trainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Collection, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .plan import StepFaults

__all__ = ["ResiliencePolicy", "FaultCounters", "FaultBudgetExceeded",
           "LinkDownError", "backoff", "quorum_floor", "select_members",
           "plan_fallback"]


class FaultBudgetExceeded(RuntimeError):
    """A delivery exhausted its retry budget under a strict policy."""


class LinkDownError(RuntimeError):
    """A timed transfer was scheduled over a downed route."""


#: bounded retransmit attempts per logical message
MAX_RETRIES = 4
#: seconds a timed sender waits before declaring a loss
TIMEOUT = 2e-3
#: first retry delay (seconds, timed path)
BACKOFF_BASE = 1e-3
#: multiplier per further retry (exponential)
BACKOFF_FACTOR = 2.0
#: cap on any single retry delay: exponential growth is unbounded
#: otherwise, and retries must degrade to steady ones, not
#: multi-second stalls
BACKOFF_MAX = 0.25
#: compute-scale factor beyond which a live rank is dropped from the
#: step's quorum (its gradient rides the carry buffer instead of being
#: waited for)
STRAGGLER_BUDGET = 2.0
#: never reduce over fewer than this fraction of the world, even if the
#: budget says to drop more ranks
MIN_QUORUM_FRACTION = 0.5


def backoff(attempt: int) -> float:
    """Delay before retry ``attempt`` (1-based), in seconds.

    Exponential in ``attempt`` but capped at :data:`BACKOFF_MAX`.
    """
    return min(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX)


@dataclass(frozen=True)
class ResiliencePolicy:
    """The two recovery switches of one campaign.

    Attributes:
        crc_check: verify payload CRCs and retransmit on mismatch; with
            this off, corrupted payloads are *delivered* and training
            absorbs the error.
        strict: raise :class:`FaultBudgetExceeded` when retries run out
            instead of forcing the delivery through.
    """

    crc_check: bool = True
    strict: bool = False


@dataclass
class FaultCounters:
    """Aggregate accounting of one campaign's faults and recoveries."""

    deliveries: int = 0          # fault-channel messages examined
    lost: int = 0                # messages dropped in flight
    corrupt_detected: int = 0    # CRC mismatches caught
    corrupt_delivered: int = 0   # corruptions passed through (no CRC)
    retries: int = 0             # retransmissions performed
    retransmit_bytes: int = 0    # extra wire bytes from retransmission
    forced_deliveries: int = 0   # retry budget exhausted, non-strict
    quorum_steps: int = 0        # steps reduced over a strict subset
    crashes: int = 0
    rejoins: int = 0
    crashed_steps: int = 0       # steps with at least one dead rank
    checkpoint_restores: int = 0
    # health-layer accounting (supervised mode)
    heartbeats: int = 0          # beats that reached the monitor
    heartbeat_misses: int = 0    # beats lost in flight
    suspected_crashes: int = 0   # detector-driven crash verdicts acted on
    false_suspicions: int = 0    # suspected crashed while actually alive
    rejoin_admissions: int = 0   # ranks re-admitted by the supervisor
    straggler_demotions: int = 0
    escalations: int = 0         # checkpoint-restore escalations taken
    oracle_reads: int = 0        # StepFaults reads on the decision path
    store_writes: int = 0        # durable checkpoints published
    store_corrupt_detected: int = 0
    # elastic accounting (spot preemption + autoscale provisioning)
    preempt_warnings: int = 0    # reclaim notices delivered to members
    graceful_exits: int = 0      # warned ranks drained out before deadline
    drain_missed: int = 0        # warned ranks degraded to the crash path
    spot_reclaims: int = 0       # machines taken back at their deadline
    provisions: int = 0          # autoscale machines announced
    provision_admissions: int = 0  # provisioned ranks admitted to the world
    respecs: int = 0             # adaptive respecs on composition change

    # derived from the dataclass itself so a new counter cannot be
    # silently dropped from merge()/to_dict()
    def merge(self, other: "FaultCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)
                    + getattr(other, f.name))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def quorum_floor(pool: Iterable[int], dead: Collection[int],
                 demoted: Iterable[int], fraction: float,
                 preference: Callable[[int], float]) -> list[int]:
    """One step's quorum over ``pool`` (sorted) — the only floor rule.

    Dead ranks never contribute.  Live ranks in ``demoted`` (the
    caller's stragglers) are left out, unless the quorum would fall
    below ``max(1, ceil(fraction * |pool|))``: then the demoted ranks
    with the lowest ``(preference(rank), rank)`` are re-admitted until
    the floor holds.
    """
    ranks = sorted(set(pool))
    out = set(demoted)
    live = [r for r in ranks if r not in dead]
    kept = [r for r in live if r not in out]
    floor = max(1, math.ceil(fraction * len(ranks)))
    readmit = sorted((r for r in live if r in out),
                     key=lambda r: (preference(r), r))
    return sorted(kept + readmit[:max(0, floor - len(kept))])


def select_members(faults: "StepFaults",
                   members: Iterable[int]) -> list[int]:
    """Which of ``members`` contribute to this step's reduction (oracle).

    Dead ranks are excluded; live ranks whose compute scale exceeds
    :data:`STRAGGLER_BUDGET` are demoted to carry mode, the least
    slow re-admitted first when :func:`quorum_floor` binds.  ``members``
    is the coordinator's current membership, so provisioned ranks join
    the straggler budget once admitted and departed ranks never
    reappear.
    """
    pool = sorted(set(members))
    dead = faults.dead_ranks()
    slow = [r for r in pool if r not in dead
            and faults.compute_scale(r) > STRAGGLER_BUDGET]
    return quorum_floor(pool, dead, slow, MIN_QUORUM_FRACTION,
                        faults.compute_scale)


def plan_fallback(faults: "StepFaults", ranks: list[int]
                  ) -> tuple[str, list[int]]:
    """Route-aware fallback decision for one timed collective.

    Returns ``(decision, members)``:

    * ``("ok", ranks)`` — no downed route among the participants; run
      the configured scheme unchanged.
    * ``("reroute", order)`` — some pairs are down but every rank is
      still reachable; ``order`` is a ring ordering that avoids every
      downed adjacency (ring/tree schedules should follow it).
    * ``("quorum", live)`` — at least one rank is unreachable from the
      quorum anchor; reduce over ``live`` with
      :func:`~repro.collectives.timing.time_partial_allreduce` and let
      the isolated ranks catch up when their links return.
    """
    down = {(a, b) for a in ranks for b in ranks
            if a != b and faults.route_down(a, b)}
    if not down:
        return "ok", list(ranks)

    def healthy(a: int, b: int) -> bool:
        return (a, b) not in down

    # connected components over healthy pairs; the quorum is the largest
    # component (smallest member breaks ties, deterministically)
    components: list[set[int]] = []
    unseen = set(ranks)
    while unseen:
        seed_rank = min(unseen)
        component = {seed_rank}
        frontier = [seed_rank]
        while frontier:
            node = frontier.pop()
            for other in ranks:
                if other in unseen and other not in component \
                        and healthy(node, other):
                    component.add(other)
                    frontier.append(other)
        unseen -= component
        components.append(component)
    if len(components) > 1:
        largest = max(components, key=lambda c: (len(c), -min(c)))
        return "quorum", sorted(largest)
    reachable = components[0]

    # all reachable: find a ring ordering avoiding every downed pair
    # (deterministic DFS over a Hamiltonian cycle; worlds are small)
    order = [min(ranks)]

    def extend() -> bool:
        if len(order) == len(ranks):
            return healthy(order[-1], order[0])
        for nxt in sorted(set(ranks) - set(order)):
            if healthy(order[-1], nxt):
                order.append(nxt)
                if extend():
                    return True
                order.pop()
        return False

    if extend():
        return "reroute", order
    return "quorum", sorted(reachable)
