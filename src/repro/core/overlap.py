"""Overlapped (async) reduction scheduling for the CGX engine.

Sequential mode runs the whole backward pass, then every collective;
the paper's engine instead enqueues each layer's gradient for reduction
as soon as its backward finishes, fuses consecutive small same-spec
packages into transmission buckets (``fusion_bytes``-targeted, exactly
the grouping the timed perf model uses), and drains the buckets over a
single communication channel in *first-needed-first-sent* order: the
next forward pass consumes front layers first, so their buckets launch
first once sealed.

This module holds the deterministic scheduling substrate the engine's
:meth:`~repro.core.engine.CommunicationEngine.reduce_overlapped` and
the overlap certifier (:mod:`repro.analysis.overlap`) share:

* :class:`OverlapDelays` — injectable per-layer compute and per-bucket
  communication intervals (the certifier injects known delays; the
  trainer uses a documented default envelope);
* :func:`assemble_buckets` — static DDP-style bucket assignment over
  the expected emission order, tie-broken on (first-needed forward
  position, emission index) so two same-seed runs produce byte-identical
  event logs;
* :func:`schedule_buckets` — the event-driven single-channel timeline:
  a bucket seals when its last member gradient is ready, and whenever
  the channel frees the sealed bucket with the smallest
  (first_needed, min_index) launches (one caller of the runtime's
  single drain, :func:`repro.collectives.timing.drain_channel`).

Everything here is simulated-time bookkeeping; the data-path math
(compression, reduction, error feedback) is untouched — buckets are
transmission groups only, each inner per-layer package still reduces
with its own compressor and state keys, which is what keeps overlapped
results bit-identical to sequential mode for deterministic compressors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.collectives.timing import drain_channel

from .engine import Package, ReductionReport

__all__ = ["OverlapDelays", "OverlapBucket", "OverlapReport",
           "assemble_buckets", "layer_ready_times", "schedule_buckets"]

#: default backward-compute throughput assumed when no delays are given
#: (elements per second; tiny layers floor at DEFAULT_COMPUTE_FLOOR)
DEFAULT_COMPUTE_ELEMS_PER_S = 1e9
DEFAULT_COMPUTE_FLOOR = 1e-6
#: default wire envelope: per-bucket launch latency + per-byte cost
DEFAULT_COMM_LATENCY = 20e-6
DEFAULT_COMM_SECONDS_PER_BYTE = 1.0 / 5e9


@dataclass(frozen=True)
class OverlapDelays:
    """Injected compute/communication intervals for the overlapped timeline.

    ``compute`` maps layer names to backward-interval seconds (the gap
    between the previous layer's gradient and this one's); a bucket's
    transfer costs ``comm_latency + wire_bytes * comm_per_byte``.  The
    certifier injects known uniform delays so the makespan bound of
    OVL005 is exact; the trainer default derives compute from layer
    sizes and uses a fixed wire envelope.
    """

    compute: Mapping[str, float]
    comm_latency: float = DEFAULT_COMM_LATENCY
    comm_per_byte: float = DEFAULT_COMM_SECONDS_PER_BYTE

    def compute_for(self, name: str) -> float:
        return float(self.compute.get(name, DEFAULT_COMPUTE_FLOOR))

    def bucket_comm(self, wire_bytes: int) -> float:
        """Transfer seconds for one bucket of ``wire_bytes`` payload."""
        return self.comm_latency + wire_bytes * self.comm_per_byte

    @staticmethod
    def uniform(names: Sequence[str], compute: float = 1e-3,
                comm_latency: float = 4e-3,
                comm_per_byte: float = 0.0) -> "OverlapDelays":
        """Identical compute per layer, fixed comm per bucket (tests)."""
        return OverlapDelays({name: float(compute) for name in names},
                             comm_latency=float(comm_latency),
                             comm_per_byte=float(comm_per_byte))

    @staticmethod
    def default_for(numels: Mapping[str, int]) -> "OverlapDelays":
        """Size-proportional compute, fixed wire envelope (trainer)."""
        compute = {
            name: max(DEFAULT_COMPUTE_FLOOR,
                      numel / DEFAULT_COMPUTE_ELEMS_PER_S)
            for name, numel in numels.items()
        }
        return OverlapDelays(compute)


@dataclass
class OverlapBucket:
    """One fused transmission group of per-layer packages.

    ``first_needed`` is the smallest forward position among member
    layers (the step of the next forward pass that first needs one of
    them); ``min_index`` is the smallest emission index, the
    deterministic tie-break.  ``ready_t``/``launch_t``/``landed_t``
    are filled by :func:`schedule_buckets`; ``exec_span`` brackets the
    trace-timeline positions of the bucket's data-path records.
    """

    name: str
    packages: list[Package]
    first_needed: int
    min_index: int
    dense_bytes: int
    wire_bytes: int
    ready_t: float = 0.0
    launch_t: float = 0.0
    landed_t: float = 0.0
    exec_span: tuple[int, int] = (-1, -1)

    @property
    def layer_names(self) -> list[str]:
        return [layer.name for pkg in self.packages for layer in pkg.layers]


@dataclass
class OverlapReport(ReductionReport):
    """A :class:`ReductionReport` plus the overlapped step's timeline."""

    buckets: list[OverlapBucket] = field(default_factory=list)
    compute_end: float = 0.0       # last gradient emission
    comm_total: float = 0.0        # sum of bucket transfer intervals
    overlapped_time: float = 0.0   # max(compute_end, last bucket landed)
    sequential_time: float = 0.0   # compute_end + comm_total

    @property
    def overlap_ratio(self) -> float:
        """Sequential over overlapped step time (>= 1 when overlap helps)."""
        if self.overlapped_time <= 0.0:
            return 1.0
        return self.sequential_time / self.overlapped_time


def layer_ready_times(ready_order: Sequence[str],
                      delays: OverlapDelays) -> dict[str, float]:
    """When each gradient is emitted: cumulative backward intervals."""
    ready: dict[str, float] = {}
    elapsed = 0.0
    for name in ready_order:
        elapsed += delays.compute_for(name)
        ready[name] = elapsed
    return ready


def assemble_buckets(packages: Sequence[Package],
                     forward_pos: Mapping[str, int],
                     fusion_bytes: int) -> list[OverlapBucket]:
    """Static bucket assignment over the expected emission order.

    ``packages`` are per-layer packages in emission (ready) order.
    Consecutive same-spec packages fuse until the dense size reaches
    ``fusion_bytes``; oversize packages and PowerSGD factors travel
    alone — the same policy as the timed perf model's grouping, so the
    overlapped data path and the step-time projections agree on what
    one collective carries.
    """
    from .engine import fuse_group, group_for_transmission

    buckets: list[OverlapBucket] = []
    emitted = 0
    for i, members in enumerate(
            group_for_transmission(list(packages), fusion_bytes)):
        pkg = fuse_group(members)
        positions = [forward_pos[layer.name] for layer in pkg.layers]
        buckets.append(OverlapBucket(
            name=f"bucket{i}[{pkg.name}]",
            packages=members,
            first_needed=min(positions),
            min_index=emitted,
            dense_bytes=pkg.numel * 4,
            wire_bytes=sum(inner.wire_bytes() for inner in members),
        ))
        emitted += len(members)
    return buckets


def schedule_buckets(buckets: Sequence[OverlapBucket],
                     ready: Mapping[str, float],
                     comm: Callable[[OverlapBucket], float]
                     ) -> list[OverlapBucket]:
    """Fill seal/launch/land times; return buckets in launch order.

    One communication channel: a bucket seals (``ready_t``) when its
    last member gradient is emitted; whenever the channel frees, the
    sealed-but-unsent bucket with the smallest (first_needed,
    min_index) launches.  The tie-break is total, so the schedule — and
    with it the canonical event log — is a pure function of the inputs.
    """
    for bucket in buckets:
        bucket.ready_t = max(ready[name] for name in bucket.layer_names)

    def land(bucket: OverlapBucket, launch: float) -> float:
        bucket.launch_t = launch
        bucket.landed_t = launch + comm(bucket)
        return bucket.landed_t

    launched = drain_channel(buckets, lambda b: b.ready_t,
                             lambda b: (b.first_needed, b.min_index), land)
    return [bucket for bucket, _, _ in launched]
