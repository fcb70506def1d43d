"""The fleet event loop: N concurrent training jobs on one shared clock.

:class:`FleetSimulator` advances a whole fleet — arrivals, FIFO
admission through a placement policy, per-job training steps, and
departures — on a single shared :class:`~repro.cluster.network.Network`.
Every job's transfers and compression kernels are scheduled onto the
*same* link-resource pool with a job tag, so contention between jobs
emerges on shared QPI, host-memory and Ethernet links exactly the way
intra-job contention does in the single-job model, and per-job throttle
rates and adaptive route selection (the psim-style knobs) apply on top.

Each job's step plan (engine packages + gradient-ready offsets) is
computed once per job shape in a run, and :class:`JobRunner` replays it
per step with the job's current clock as the origin — the same
``repro.training.perf.plan_step`` / ``replay_step`` pair that
``simulate_step`` runs once from time zero on a private network.

Event ordering is greedy list scheduling at step granularity: the
pending step with the earliest *start* time is scheduled next (ties
broken by job id), matching the resource pool's no-backfill semantics.
Two same-seed runs produce byte-identical canonical event logs
(:meth:`FleetResult.log_bytes`), the determinism contract every prior
subsystem follows.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.cluster import Network, Topology, get_backend, get_gpu
from repro.cluster.gpu import GPUSpec
from repro.models import ModelSpec, build_spec
from repro.training.perf import optimizer_time, plan_step, replay_step

from .jobs import JobSpec, JobState
from .placement import PLACEMENT_POLICIES, place

if TYPE_CHECKING:
    from .metrics import FleetMetrics

__all__ = ["FleetSimulator", "FleetResult", "JobRunner", "FLEET_LOG_VERSION"]

FLEET_LOG_VERSION = 1

#: transport cost model of the shared fleet network (the log header
#: records it)
BACKEND = "shm"


class JobRunner:
    """One job's precomputed step model, replayed on a shared network.

    Planning (engine packages, fusion, gradient-ready offsets) happens
    once per job shape: ``plans`` maps each ``(model, method, bits,
    scheme, batch)`` — everything the plan reads — to the plan the
    run's first job of that shape made, so same-shape runners share
    one plan object.  Each :meth:`run_step` then replays the plan with
    the job's current clock as origin, occupying the shared pool under
    the job's tag.
    """

    def __init__(self, spec: JobSpec, model: ModelSpec, gpu: GPUSpec,
                 ranks: list[int], network: Network,
                 plans: dict[tuple, list]) -> None:
        self.spec = spec
        self.ranks = list(ranks)
        self.network = network
        self.config, plan_mode = spec.build_config()
        batch = spec.batch_per_gpu or gpu.max_batch_per_gpu(model)
        self.batch_per_gpu = batch
        self.compute_time = gpu.step_compute_time(model, batch)
        self.optimizer_time = optimizer_time(model)
        self.items_per_step = len(ranks) * batch * model.items_per_sample
        self.plan: list = []
        if len(ranks) > 1:
            shape = (spec.model, spec.method, spec.bits, spec.scheme, batch)
            if shape not in plans:
                plans[shape] = plan_step(model, self.config,
                                         self.compute_time, plan_mode)
            self.plan = plans[shape]

    def run_step(self, start: float,
                 network: Network | None = None) -> tuple[float, int]:
        """Execute one training step starting at ``start``.

        Returns ``(step end time, wire bytes)``.  ``network`` overrides
        the shared network — the metrics layer uses a fresh one to
        measure the job's contention-free (isolated) step time with the
        identical plan and placement.
        """
        net = network if network is not None else self.network
        last_end, wire, _ = replay_step(net, self.ranks, self.plan,
                                        self.config, start=start,
                                        job=self.spec.job_id)
        return (max(start + self.compute_time, last_end)
                + self.optimizer_time, wire)


@dataclass
class FleetResult:
    """Everything a finished fleet campaign produced."""

    policy: str
    routing: str
    seed: int | None
    topology: Topology
    states: list[JobState]
    records: list[dict]            # canonical event stream, processing order
    network: Network
    runners: dict[int, "JobRunner"] = field(repr=False, default_factory=dict)

    @property
    def makespan(self) -> float:
        ends = [s.finish_time for s in self.states if s.finish_time is not None]
        return max(ends) if ends else 0.0

    def log_bytes(self) -> bytes:
        """Canonical byte encoding of the fleet event log.

        Two same-seed campaigns must produce identical bytes — the
        determinism check CI enforces with ``cmp``.
        """
        payload = {
            "version": FLEET_LOG_VERSION,
            "fleet": {
                "policy": self.policy,
                "routing": self.routing,
                "backend": BACKEND,
                "seed": self.seed,
                "topology": self.topology.name,
                "n_gpus": self.topology.n_gpus,
                "jobs": [s.spec.to_dict() for s in self.states],
            },
            "records": self.records,
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def records_of(self, kind: str, job: int | None = None
                   ) -> Iterator[dict]:
        """This run's ``kind`` records (of ``job`` only, if given), in
        log order — the one reader of the fleet event log, like
        :func:`repro.faults.plan.records_of` for the fault log."""
        for record in self.records:
            if record["event"] == kind and job in (None, record["job"]):
                yield record

    def metrics(self) -> FleetMetrics:
        """Fleet-level metrics (lazy import avoids a module cycle)."""
        from .metrics import compute_metrics

        return compute_metrics(self)

    def job_link_names(self, job_id: int) -> set[str]:
        """Shared (non-GPU-engine) resources this job's steps occupied."""
        return {name
                for name in self.network.job_link_seconds(job_id)
                if not name.startswith("gpu")}

    def isolated_probe(self, job_id: int) -> Network:
        """The empty network the job would have had alone — this fleet's
        topology, backend and routing, the job's own throttle: the one
        contention-free baseline behind :meth:`isolated_replay` and
        :func:`repro.sched.metrics.isolated_step_times`."""
        probe = Network(self.topology, self.network.backend,
                        route_policy=self.routing)
        throttle = self.runners[job_id].spec.throttle
        if throttle < 1.0:
            probe.set_job_throttle(job_id, throttle)
        return probe

    def isolated_replay(self, job_id: int) -> list[float]:
        """Recorded step end times, replayed as if the job ran alone.

        Replays the job's precomputed plan on its :meth:`isolated_probe`,
        launching every step at its *recorded* start time.
        Contention can only delay — resource starts are
        ``max(ready, busy_until)`` and float ``+``/``max`` are monotone
        — so each fleet step end is >= its replayed end, and for a job
        whose links were touched by no time-overlapping competitor the
        two are bit-identical (certifier rule SCD005).
        """
        runner = self.runners[job_id]
        probe = self.isolated_probe(job_id)
        return [runner.run_step(record["t"], network=probe)[0]
                for record in self.records_of("step", job_id)]


class FleetSimulator:
    """Places and advances concurrent jobs on one shared simulated cluster.

    Args:
        topology: the fleet's interconnect (typically
            :func:`~repro.cluster.machine.make_cluster`).
        jobs: the submission schedule (see :func:`~repro.sched.jobs
            .sample_fleet`).
        gpu: compute envelope of every fleet GPU (name or spec).
        policy: placement policy (:data:`PLACEMENT_POLICIES`).
        routing: ``static`` or ``adaptive`` route selection.
        seed: recorded in the canonical log header (the workload
            generator's seed; the loop itself draws no randomness).
        trace: record per-transfer records (exportable to Perfetto with
            per-job lanes).
        link_load_bin: if > 0, track per-link busy seconds in bins of
            this width (the link-load timelines in the metrics).
        audit: record the exact occupation ledgers the conservation
            certifier sums in :class:`fractions.Fraction` arithmetic
            (rule SCD003); off by default — ledgers grow with every
            scheduled task.
    """

    def __init__(self, topology: Topology, jobs: list[JobSpec],
                 gpu: GPUSpec | str = "RTX3090", policy: str = "packed",
                 routing: str = "static",
                 seed: int | None = None, trace: bool = False,
                 link_load_bin: float = 0.0,
                 spec_library: dict[str, ModelSpec] | None = None,
                 audit: bool = False) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise KeyError(
                f"unknown policy {policy!r}; choose from {PLACEMENT_POLICIES}")
        if len({spec.job_id for spec in jobs}) != len(jobs):
            raise ValueError("job ids must be unique")
        for spec in jobs:
            if spec.world > topology.n_gpus:
                raise ValueError(
                    f"job {spec.job_id} wants {spec.world} ranks; fleet has "
                    f"{topology.n_gpus} GPUs")
        self.topology = topology
        self.jobs = sorted(jobs, key=lambda s: (s.arrival, s.job_id))
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.policy = policy
        self.routing = routing
        self.seed = seed
        self.trace = trace
        self.link_load_bin = link_load_bin
        self.audit = audit
        self._specs: dict[str, ModelSpec] = dict(spec_library or {})

    def _model(self, name: str) -> ModelSpec:
        spec = self._specs.get(name)
        if spec is None:
            spec = build_spec(name)
            self._specs[name] = spec
        return spec

    def run(self) -> FleetResult:
        """Advance the fleet until every submitted job has departed.

        Each run replays onto a network of its own, so a second run of
        one simulator repeats the first instead of queueing behind its
        link occupancy."""
        network = Network(self.topology, get_backend(BACKEND),
                          route_policy=self.routing)
        if self.trace:
            network.enable_trace()
        if self.link_load_bin:
            network.enable_link_loads(self.link_load_bin)
        if self.audit:
            network.enable_conservation_audit()
        states = {spec.job_id: JobState(spec) for spec in self.jobs}
        runners: dict[int, JobRunner] = {}
        plans: dict[tuple, list] = {}        # job shape -> its one plan
        records: list[dict] = []
        pending = deque(self.jobs)
        queue: deque[int] = deque()
        heap: list[tuple[float, int]] = []   # (next step start, job id)
        occupied: set[int] = set()
        free_at: dict[int, float] = {}       # gpu -> last departure's end

        def admit(now: float) -> None:
            # FIFO with head-of-line blocking: a big job at the head
            # holds back smaller ones — queueing delay is the honest
            # price of arrival order, not best-effort backfilling.
            while queue:
                spec = states[queue[0]].spec
                free = set(range(self.topology.n_gpus)) - occupied
                ranks = place(self.policy, self.topology, spec.world, free)
                if ranks is None:
                    return
                queue.popleft()
                # departures are processed in step-START order, so a GPU
                # freed by an early-ending job may still be held (on the
                # sim clock) by a later-ending one already popped from
                # the heap; starting at the GPUs' true free times keeps
                # placements overlap-free
                start = max([now] + [free_at.get(g, 0.0) for g in ranks])
                state = states[spec.job_id]
                state.status = "running"
                state.ranks = tuple(ranks)
                state.admit_time = start
                occupied.update(ranks)
                if spec.throttle < 1.0:
                    network.set_job_throttle(spec.job_id, spec.throttle)
                runners[spec.job_id] = JobRunner(
                    spec, self._model(spec.model), self.gpu, ranks,
                    network, plans)
                records.append({"event": "admit", "job": spec.job_id,
                                "t": start, "ranks": list(ranks)})
                heapq.heappush(heap, (start, spec.job_id))

        while pending or queue or heap:
            next_arrival = pending[0].arrival if pending else float("inf")
            next_step = heap[0][0] if heap else float("inf")
            if next_arrival <= next_step:
                spec = pending.popleft()
                records.append({"event": "arrive", "job": spec.job_id,
                                "t": spec.arrival})
                queue.append(spec.job_id)
                admit(spec.arrival)
            else:
                start, job_id = heapq.heappop(heap)
                state = states[job_id]
                end, wire = runners[job_id].run_step(start)
                state.steps_done += 1
                state.wire_bytes += wire
                state.step_durations.append(end - start)
                records.append({"event": "step", "job": job_id,
                                "step": state.steps_done, "t": start,
                                "end": end})
                if state.steps_done == state.spec.steps:
                    state.status = "done"
                    state.finish_time = end
                    occupied.difference_update(state.ranks)
                    for gpu in state.ranks:
                        free_at[gpu] = end
                    network.clear_job_throttle(job_id)
                    records.append({"event": "finish", "job": job_id,
                                    "t": end})
                    admit(end)
                else:
                    heapq.heappush(heap, (end, job_id))

        return FleetResult(
            policy=self.policy, routing=self.routing, seed=self.seed,
            topology=self.topology,
            states=[states[spec.job_id] for spec in self.jobs],
            records=records, network=network, runners=runners,
        )
