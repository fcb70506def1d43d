"""Fleet-level metrics: throughput, queueing delay, fairness, link load.

The fleet simulator reports *what happened*; this module turns it into
the numbers the scheduling literature argues about:

* **fleet throughput** — training items (images / tokens) processed per
  second of fleet time, summed over every job.
* **queueing delay** — seconds between a job's arrival and its
  placement; the mean and tail (p95) expose head-of-line blocking under
  the FIFO admission discipline.
* **Jain fairness** — computed over per-job *efficiency* (isolated step
  time ÷ achieved mean step time, in ``(0, 1]``), so a fleet where
  contention hits every job equally scores 1.0 and one that starves a
  subset scores toward ``1/n``.  Isolated baselines replay each job's
  exact plan and placement on the network it would have had alone —
  same topology, backend and routing, its own throttle — so slowdown
  measures contention only (and is >= 1 up to clock-origin rounding
  wherever contention can only delay, which SCD005 certifies).
* **link load** — busiest shared resources by busy-seconds, plus the
  binned per-link timelines when the simulator recorded them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fleet import FleetResult

__all__ = ["FleetMetrics", "compute_metrics", "jain_fairness", "percentile"]


def jain_fairness(values: list[float]) -> float:
    """Jain's index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly fair.

    Defined for non-negative allocations; an empty or all-zero vector
    degenerates to 1.0 (nobody is being treated unequally).
    """
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("Jain fairness is defined for non-negative values")
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 1.0
    total = sum(values)
    # float rounding can nudge a perfectly-fair vector a few ulps above
    # 1.0; the index is provably <= 1 (Cauchy-Schwarz), so clamp
    return min(1.0, (total * total) / (len(values) * square_sum))


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100]) of ``values``.

    An empty sequence degenerates to 0.0 — an all-instantly-admitted
    fleet has no queue waits, and its tail wait is zero, not an error
    (certifier rule SCD006 evaluates the degenerate fleets too).
    """
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class FleetMetrics:
    """Aggregated outcome of one fleet campaign."""

    policy: str
    routing: str
    n_jobs: int
    completed: int
    makespan: float
    fleet_items_per_s: float        # training items processed per second
    fleet_steps_per_s: float
    mean_queue_wait: float
    p95_queue_wait: float
    max_queue_wait: float
    fairness: float                 # Jain index over per-job efficiencies
    #: achieved / isolated step time; the isolated run keeps the job's
    #: routing and throttle, so only contention moves it off 1.0
    mean_slowdown: float
    max_slowdown: float
    total_wire_bytes: int
    per_job: list[dict] = field(default_factory=list)
    #: the eight links with the most busy seconds, GPU engines excluded
    busiest_links: list[tuple[str, float]] = field(default_factory=list)
    link_timelines: dict[str, dict[int, float]] = field(default_factory=dict)
    link_load_bin: float = 0.0

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "routing": self.routing,
            "n_jobs": self.n_jobs,
            "completed": self.completed,
            "makespan": self.makespan,
            "fleet_items_per_s": self.fleet_items_per_s,
            "fleet_steps_per_s": self.fleet_steps_per_s,
            "mean_queue_wait": self.mean_queue_wait,
            "p95_queue_wait": self.p95_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "fairness": self.fairness,
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
            "total_wire_bytes": self.total_wire_bytes,
            "per_job": self.per_job,
            "busiest_links": [list(item) for item in self.busiest_links],
            "link_load_bin": self.link_load_bin,
        }


def isolated_step_times(result: FleetResult) -> dict[int, float]:
    """Each job's contention-free step time, with its fleet placement.

    Replays every job's precomputed plan once on its
    :meth:`~repro.sched.fleet.FleetResult.isolated_probe` — the network
    the job would have had alone (same routing, its own throttle), the
    counterfactual slowdown and fairness are measured against.
    """
    return {job_id: runner.run_step(
                0.0, network=result.isolated_probe(job_id))[0]
            for job_id, runner in result.runners.items()}


def compute_metrics(result: FleetResult) -> FleetMetrics:
    """Reduce a :class:`FleetResult` to fleet-level numbers."""
    baselines = isolated_step_times(result)
    waits = [s.queue_wait for s in result.states if s.queue_wait is not None]
    makespan = result.makespan

    items = 0.0
    steps = 0
    efficiencies: list[float] = []
    slowdowns: list[float] = []
    per_job: list[dict] = []
    total_wire = 0
    for state in result.states:
        runner = result.runners.get(state.spec.job_id)
        total_wire += state.wire_bytes
        steps += state.steps_done
        entry = {
            "job": state.spec.job_id,
            "model": state.spec.model,
            "world": state.spec.world,
            "method": state.spec.method,
            "status": state.status,
            "queue_wait": state.queue_wait,
            "mean_step_time": state.mean_step_time,
            "wire_bytes": state.wire_bytes,
        }
        if runner is not None:
            items += runner.items_per_step * state.steps_done
            achieved = state.mean_step_time
            isolated = baselines[state.spec.job_id]
            if achieved and isolated > 0:
                slowdown = achieved / isolated
                slowdowns.append(slowdown)
                efficiencies.append(min(1.0, isolated / achieved))
                entry["isolated_step_time"] = isolated
                entry["slowdown"] = slowdown
        per_job.append(entry)

    busy = sorted(
        ((name, seconds)
         for name, seconds in result.network.pool.busy_seconds().items()
         if not name.startswith("gpu")),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return FleetMetrics(
        policy=result.policy,
        routing=result.routing,
        n_jobs=len(result.states),
        completed=sum(1 for s in result.states if s.status == "done"),
        makespan=makespan,
        fleet_items_per_s=items / makespan if makespan > 0 else 0.0,
        fleet_steps_per_s=steps / makespan if makespan > 0 else 0.0,
        mean_queue_wait=sum(waits) / len(waits) if waits else 0.0,
        p95_queue_wait=percentile(waits, 95.0) if waits else 0.0,
        max_queue_wait=max(waits) if waits else 0.0,
        fairness=jain_fairness(efficiencies),
        mean_slowdown=(sum(slowdowns) / len(slowdowns)) if slowdowns else 1.0,
        max_slowdown=max(slowdowns) if slowdowns else 1.0,
        total_wire_bytes=total_wire,
        per_job=per_job,
        busiest_links=busy[:8],
        link_timelines=result.network.link_loads(),
        link_load_bin=result.network.load_bin_width,
    )
