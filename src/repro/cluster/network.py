"""Timed network: schedules point-to-point transfers on topology links.

:class:`Network` combines a :class:`~repro.cluster.topology.Topology`
with a :class:`~repro.cluster.backends.BackendModel` and a pool of link
resources.  Each transfer occupies every directed link on its route for
the duration of the message; contention (the commodity boxes' collapse
from 14 GB/s point-to-point to ~1 GB/s all-reduce bandwidth) emerges
from shared host-memory and QPI links serializing concurrent flows.

The same serialization mechanism makes one network shareable between
*jobs*: the fleet scheduler (``repro.sched``) runs many concurrent
training jobs on a single pool, tagging every transfer and kernel with
a job id.  Cross-job contention then emerges on shared QPI, host-memory
and Ethernet links exactly as intra-job contention does today, with
per-job accounting (trace lanes, busy seconds, throttle rates) layered
on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import simclock
from .backends import BackendModel, get_backend
from .simclock import Resource, ResourcePool
from .topology import Topology

__all__ = ["Network", "TransferRecord", "export_chrome_trace"]

ROUTE_POLICIES = ("static", "adaptive")

#: one resolved route: ``(resource, bandwidth, latency)`` per link, in order
_Route = tuple[tuple[Resource, float, float], ...]


@dataclass(frozen=True)
class TransferRecord:
    """One completed point-to-point transfer (for tracing/tests)."""

    src: int
    dst: int
    nbytes: int
    start: float
    end: float
    job: int | None = None   # owning job in shared (fleet) use


class Network:
    """Schedules transfers and per-GPU compute tasks on shared resources.

    Args:
        topology: link graph and route table.
        backend: transport cost model (name or instance).
        route_policy: ``static`` always takes the topology's primary
            route; ``adaptive`` also considers the topology's registered
            detours (:attr:`Topology.alt_routes`) and picks whichever
            candidate finishes earliest under current link contention.
    """

    def __init__(self, topology: Topology, backend: BackendModel | str = "shm",
                 route_policy: str = "static") -> None:
        if route_policy not in ROUTE_POLICIES:
            raise ValueError(f"route_policy must be one of {ROUTE_POLICIES}")
        self.topology = topology
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.route_policy = route_policy
        self.pool = ResourcePool()
        #: names are resolved to pool resources on first use and the
        #: objects walked thereafter: per ``(src, dst)`` the candidate
        #: routes, per ``(gpu, engine)`` the engine (the pool never drops
        #: a resource, so both stay valid).  Invariant: the
        #: topology (routes, detours, link bandwidth/latency) and
        #: ``route_policy`` are frozen once the first transfer has run —
        #: a pair already bound does not see a later change
        self._routes: dict[tuple[int, int], tuple[_Route, ...]] = {}
        self._engines: dict[tuple[int, str], Resource] = {}
        self.trace: list[TransferRecord] = []
        self._trace_enabled = False
        self._job_throttle: dict[int, float] = {}
        self._load_bin_width: float = 0.0   # 0 = link-load tracking off
        self._load_bins: dict[str, dict[int, float]] = {}
        #: bytes put on links per job tag (None = untagged); integers, so
        #: cross-job conservation is checkable with exact equality
        self._job_bytes: dict[int | None, int] = {}

    # -- configuration ----------------------------------------------------
    def enable_trace(self) -> None:
        self._trace_enabled = True

    def enable_conservation_audit(self) -> None:
        """Record the exact occupation ledger the SCD003 conservation
        checks need (see :meth:`ResourcePool.enable_audit`)."""
        self.pool.enable_audit()

    def enable_link_loads(self, bin_width: float = 0.01) -> None:
        """Track per-link busy seconds in ``bin_width``-second bins."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self._load_bin_width = bin_width
        self._load_bins.clear()

    def set_job_throttle(self, job: int, rate: float) -> None:
        """Scale ``job``'s effective link bandwidth by ``rate`` ∈ (0, 1].

        A throttled job's transfers take proportionally longer on every
        link, releasing bandwidth to its neighbors — the psim-style
        pressure valve the fleet scheduler applies to jobs that overrun
        their fair share of a contended link.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"throttle rate must be in (0, 1], got {rate}")
        self._job_throttle[job] = rate

    def clear_job_throttle(self, job: int) -> None:
        self._job_throttle.pop(job, None)

    def job_throttle(self, job: int | None) -> float:
        if job is None:
            return 1.0
        return self._job_throttle.get(job, 1.0)

    # -- transfers ---------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int, ready: float,
                 job: int | None = None, slow: float = 1.0) -> float:
        """Send ``nbytes`` from GPU ``src`` to ``dst``; returns end time.

        ``job`` tags the transfer for shared (multi-job) networks: link
        busy time is attributed to the job, the job's throttle rate
        scales its effective bandwidth, and trace records land in the
        job's lane.  A message to itself costs nothing and returns
        ``ready``.

        This is the one link walk (route, per-link service, ledgers,
        trace).  Store-and-forward: the message traverses its route link
        by link, occupying each link only for that link's own service
        time (``bytes / link_bandwidth + latency``).  On direct NVLink
        paths this equals cut-through; on commodity routes it charges the
        extra host-memory staging hop that missing GPUDirect implies,
        and concurrent flows through a shared link serialize there —
        which is how 14 GB/s point-to-point collapses toward ~1 GB/s of
        8-way all-reduce bandwidth.

        ``slow`` stretches every link's service time; it carries a fault
        plan's link slowdown (``FaultyNetwork``), and ``1.0 * x == x``
        keeps plain transfers bit-exact.
        """
        if src == dst:
            return ready
        backend = self.backend
        start_overall = ready + backend.alpha
        scaled = nbytes * backend.copy_factor
        # job_throttle(job) without the call; read per call, never bound
        # into the route: throttles come and go
        throttle = 1.0 if job is None else self._job_throttle.get(job, 1.0)
        candidates = self._routes.get((src, dst)) \
            or self._resolve_route(src, dst)
        route = candidates[0]
        if len(candidates) > 1:
            route = self._earliest_route(candidates, start_overall, scaled,
                                         throttle, slow)
        end = simclock.commit_route(
            route, start_overall, scaled, throttle, slow, job,
            self._bin_load if self._load_bin_width else None)
        self._job_bytes[job] = self._job_bytes.get(job, 0) + nbytes
        if self._trace_enabled:
            self.trace.append(
                TransferRecord(src, dst, nbytes, start_overall, end, job))
        return end

    #: the same walk under a name the per-message counters do not wrap:
    #: ``FaultyNetwork`` walks a route once per retry of one message
    _walk = transfer

    def _resolve_route(self, src: int, dst: int) -> tuple[_Route, ...]:
        """Bind ``src -> dst`` to its link resources, once per network.

        Candidates are the primary route, then (adaptive policy only)
        the registered detours; resources are taken from the pool in
        that order — the order the first walk of the pair visits them —
        so pool iteration order does not depend on the binding.  Only
        topology constants are bound: throttle and ``slow`` are per-call.
        """
        topology = self.topology
        paths = [topology.path(src, dst)]
        if self.route_policy == "adaptive":
            # no candidates means an empty primary: keep the one route
            paths = topology.candidate_paths(src, dst) or paths
        candidates = tuple(
            tuple((self.pool.get(link.name), link.bandwidth, link.latency)
                  for link in path)
            for path in paths)
        self._routes[(src, dst)] = candidates
        return candidates

    def _bin_load(self, name: str, start: float, end: float) -> None:
        width = self._load_bin_width
        bins = self._load_bins.setdefault(name, {})
        b = int(start / width)
        lo = b * width
        while lo < end:
            hi = (b + 1) * width
            # min(end, hi) - max(start, lo); inside one bin (95% of a
            # fleet's occupations at 10 ms bins) that is ``end - start``
            overlap = (end if end < hi else hi) - (start if start > lo else lo)
            if overlap > 0:
                bins[b] = bins.get(b, 0.0) + overlap
            b += 1
            lo = hi

    @staticmethod
    def _earliest_route(candidates: tuple[_Route, ...], start: float,
                        scaled: float, throttle: float, slow: float) -> _Route:
        """The candidate that finishes earliest right now (adaptive).

        Peeking never commits resource time, so losing candidates leave
        no mark on the timelines.
        """
        best_route = candidates[0]
        best_end = float("inf")
        for route in candidates:
            t = start
            for resource, bandwidth, latency in route:
                # earliest start without a call: a peek call was 17% of an
                # adaptive fleet campaign (paired CPU time, 10 of 10;
                # CHANGES.md)
                busy = resource.busy_until
                t = (busy if busy > t else t) + slow * (
                    scaled / (bandwidth * throttle) + latency)
            if t < best_end:   # strict: ties keep the earlier (primary) route
                best_end = t
                best_route = route
        return best_route

    # -- per-GPU auxiliary engines -----------------------------------------
    def gpu_engine(self, gpu: int, engine: str) -> str:
        """Resource name of a per-GPU engine (e.g. 'compress', 'reduce')."""
        return f"gpu{gpu}.{engine}"

    def run_kernel(self, gpu: int, engine: str, duration: float,
                   ready: float, job: int | None = None) -> float:
        """Occupy a per-GPU engine (compression kernels, local reduce)."""
        resource = self._engines.get((gpu, engine))
        if resource is None:
            resource = self._engines[(gpu, engine)] = \
                self.pool.get(self.gpu_engine(gpu, engine))
        return resource.schedule(ready, duration, job)[1]

    # -- measurements -------------------------------------------------------
    def link_loads(self) -> dict[str, dict[int, float]]:
        """Per-link busy seconds per time bin (requires
        :meth:`enable_link_loads`); bin ``b`` covers
        ``[b * bin_width, (b + 1) * bin_width)``."""
        return {name: dict(bins) for name, bins in self._load_bins.items()}

    @property
    def load_bin_width(self) -> float:
        return self._load_bin_width

    def job_link_seconds(self, job: int) -> dict[str, float]:
        """Seconds each resource spent serving ``job``."""
        return self.pool.job_busy_seconds(job)

    def total_transferred_bytes(self) -> int:
        """All bytes this network ever put on links (every job tag)."""
        return sum(self._job_bytes.values())

    def transferred_bytes(self, job: int | None) -> int:
        """Bytes put on links under one job tag (``None`` = untagged).

        Integer accounting, independent of the trace (which may be
        disabled or partially cleared), so the certifier can demand
        exact equality against the jobs' own ``wire_bytes`` counters
        (SCD003).
        """
        return self._job_bytes.get(job, 0)


def export_chrome_trace(network: Network, path: str) -> int:
    """Write the network's transfer trace as a Chrome/Perfetto trace file.

    Each transfer becomes a complete event; load the JSON at
    ``chrome://tracing`` or https://ui.perfetto.dev to see the
    communication schedule (requires ``network.enable_trace()`` before
    simulating).  Returns the number of transfer events written.

    Untagged (single-job) records all land on pid 0, keeping the
    historical output byte for byte.  Job-tagged records are grouped
    into per-job lanes — job id becomes the Perfetto *process*, source
    GPU the *thread* — with process_name metadata so a fleet trace
    reads as one row group per job.
    """
    import json

    events = []
    jobs = sorted({r.job for r in network.trace if r.job is not None})
    for job in jobs:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": job,
            "args": {"name": f"job {job}"},
        })
    for record in network.trace:
        events.append({
            "name": f"{record.src}->{record.dst} "
                    f"({record.nbytes / 1e6:.1f} MB)",
            "cat": "transfer",
            "ph": "X",
            "ts": record.start * 1e6,          # microseconds
            "dur": max(0.01, (record.end - record.start) * 1e6),
            "pid": 0 if record.job is None else record.job,
            "tid": record.src,
            "args": {"bytes": record.nbytes, "dst": record.dst},
        })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, handle)
    return len(network.trace)
