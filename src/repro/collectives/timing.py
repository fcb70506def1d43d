"""Timed collectives: the declared schedules priced on the simulated network.

The data-path modules in this package measure *what* a scheme computes;
this module measures *when*.  It has no per-scheme code: a scheme's
rounds are declared once (:mod:`.schedules`), and :class:`_Scheduler`
is their timed interpreter — it issues each round's transfers and
compression kernels onto a :class:`~repro.cluster.network.Network` in
the order the round's discipline states, occupying links and per-GPU
compression engines, and returns per-rank completion times.  The
performance model (``repro.training.perf``) composes these per fusion
buffer to obtain end-to-end step times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.cluster.network import Network
from repro.compression import CompressionSpec
from repro.compression.base import Shape, operator_class
from repro.compression.metrics import kernel_seconds
from repro.compression.powersgd import _factor_shape

from .base import chunk_bounds
from .schedules import (EXCHANGE, FLAT_SCHEDULES, Cast, Round, Schedule,
                        Stage, hier_schedule, partial_schedule)

__all__ = ["CollectiveTiming", "time_allreduce",
           "time_partial_allreduce", "SCHEMES", "drain_channel",
           "TimedBucket", "OverlapStepTiming", "time_overlapped_step"]

T = TypeVar("T")
#: what a factored operator's P and Q factors travel as
_DENSE = CompressionSpec("none")
#: the end of a rank no fan-out of the round has reached
_NEVER = float("-inf")


@dataclass
class CollectiveTiming:
    """Result of scheduling one collective."""

    end_times: list[float]   # completion per participating rank
    wire_bytes: int          # payload bytes put on links
    kernel_calls: int        # compression-engine invocations

    @property
    def end(self) -> float:
        return max(self.end_times)


class _Scheduler:
    """One collective's binding of a network, a spec and its accounting,
    and the timed interpreter of a declared schedule (:meth:`run`).

    Whatever stays fixed for the collective is bound here once — the
    network's two entry points as bound methods, the compression engine
    names, and each distinct chunk size's price — so a message or kernel
    costs its entry-point call and a few integer updates.  :meth:`run`
    prices a schedule's chunks once (:meth:`price`) and hands
    :meth:`kernel` and :meth:`send` the seconds and bytes directly.

    Kernels follow one rule: a fresh send is encoded by its sender and
    decoded by its receiver, a cast's root encodes once and each
    receiver decodes (a decode per receiver), and a nested stage of one
    rank costs nothing (a lone leader already holds its node's sum).
    The issue order is part of the contract: a ``Network`` creates a
    resource on first touch, and ``busy_seconds()`` iterates in creation
    order; each GPU's kernels alternate over its streams in issue order.
    """

    def __init__(self, network: Network, spec: CompressionSpec,
                 streams: int = 1, kernel_factor: float = 1.0,
                 job: int | None = None):
        self.net = network
        self.spec = spec
        # "fake" compression only truncates the send; it runs no kernel
        self.compressing = spec.method not in ("none", "fake")
        self.streams = max(1, streams)
        self.kernel_factor = kernel_factor
        self.job = job
        self.wire_bytes = 0
        self.kernel_calls = 0
        self._streams: dict[int, Iterator[str]] = {}
        self._engine_names = [f"compress{s}" for s in range(self.streams)]
        #: chunk numel -> (kernel seconds, wire bytes); a collective has
        #: one or two distinct chunk sizes, each priced once
        self._prices: dict[int, tuple[float, int]] = {}
        # the counted entry points, bound once (never the walk behind them)
        self._transfer = network.transfer
        self._run_kernel = network.run_kernel

    def price(self, numel: int) -> tuple[float, int]:
        """``(kernel seconds, wire bytes)`` of a ``numel``-element chunk."""
        price = self._prices.get(numel)
        if price is None:
            price = self._prices[numel] = (
                self.kernel_factor * kernel_seconds(numel * 4),
                self.spec.wire_bytes(numel))
        return price

    def kernel(self, gpu: int, seconds: float, ready: float) -> float:
        """Charge one compress/decompress kernel; returns end time."""
        if not self.compressing:
            return ready
        streams = self._streams.get(gpu)
        if streams is None:  # each GPU takes its streams round-robin
            streams = self._streams[gpu] = cycle(self._engine_names)
        self.kernel_calls += 1
        return self._run_kernel(gpu, next(streams), seconds, ready, self.job)

    def factor_kernel(self, gpu: int, seconds: float, ready: float) -> float:
        """Charge one power-iteration kernel of a factored operator on the
        first compression engine; returns end time."""
        self.kernel_calls += 1
        return self._run_kernel(gpu, self._engine_names[0], seconds, ready,
                                self.job)

    def send(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        """Put one ``nbytes`` message on the network; returns arrival."""
        self.wire_bytes += nbytes
        return self._transfer(src, dst, nbytes, ready, self.job)

    def op_start(self, ready: float) -> float:
        backend = self.net.backend
        return ready + backend.per_op_overhead + backend.sync_per_op

    def allreduce(self, scheme: str, ranks: list[int], numel: int,
                  ready: list[float]) -> list[float]:
        """Per-rank end times of one ``scheme`` collective of ``numel``
        elements launched at ``ready``."""
        if len(ranks) == 1:
            return [ready[0]]
        schedule = FLAT_SCHEDULES[scheme](len(ranks)) if scheme != "hier" \
            else hier_schedule(tuple(self.net.topology.node_of[r] for r in ranks))
        return self.run(schedule, ranks, numel,
                        [self.op_start(t) for t in ready])

    def run(self, schedule: Schedule, gpus: Sequence[int], numel: int,
            t: list[float]) -> list[float]:
        """Price ``schedule`` with its rank ``i`` on GPU ``gpus[i]``, from
        the per-rank clocks ``t``; returns ``t`` advanced to each rank's
        end."""
        prices = [self.price(end - start)
                  for start, end in chunk_bounds(numel, schedule.parts)]
        for part in schedule.rounds:
            if isinstance(part, Stage):
                if len(part.members) > 1:  # nothing for a lone leader
                    ends = self.run(part.schedule,
                                    [gpus[i] for i in part.members], numel,
                                    [t[i] for i in part.members])
                    for i, end in zip(part.members, ends):
                        t[i] = end
            elif part.order == EXCHANGE:
                self._exchange(part, gpus, prices, t)
            else:
                self._chain(part, gpus, prices, t)
        return t

    def _exchange(self, round_: Round, gpus: Sequence[int],
                  prices: list[tuple[float, int]], t: list[float]) -> None:
        """Post every send in listed order, each fresh one encoded behind
        its sender's previous encode; then land receiver by receiver in
        rank order — arrivals in arrival order, behind its clock.  In a
        round with casts (SRA) every receiver roots one: it lands, encodes
        the chunk from its landed clock and fans it out before the next
        receiver lands.  (``a if a > b else b`` is ``max(b, a)`` without
        the call, ties and NaN included.)"""
        kernel, send, forward = self.kernel, self.send, round_.forward
        if not round_.casts:  # a step: each rank sends and receives once
            landed: list[float | None] = [None] * len(gpus)
            decode = [0.0] * len(gpus)
            for src, dst, chunk, _, _ in round_.sends:
                seconds, nbytes = prices[chunk]
                ready = t[src] if forward else kernel(gpus[src], seconds, t[src])
                landed[dst] = send(gpus[src], gpus[dst], nbytes, ready)
                decode[dst] = seconds
            for rank, arrive in enumerate(landed):
                if arrive is not None:
                    held = t[rank]
                    t[rank] = kernel(gpus[rank], decode[rank],
                                     arrive if arrive > held else held)
            return
        inbox: list[list[float]] = [[] for _ in gpus]
        sender, ready = -1, 0.0
        for src, dst, chunk, _, _ in round_.sends:
            seconds, nbytes = prices[chunk]
            if src != sender:
                sender, ready = src, t[src]
            ready = kernel(gpus[src], seconds, ready)
            inbox[dst].append(send(gpus[src], gpus[dst], nbytes, ready))
        done = [_NEVER] * len(gpus)
        for cast in round_.casts:  # listed by root
            rank, seconds = cast.root, prices[cast.chunk][0]
            clock = t[rank]
            for arrive in sorted(inbox[rank]):
                clock = kernel(gpus[rank], seconds,
                               arrive if arrive > clock else clock)
            ready = kernel(gpus[rank], seconds, clock)
            if ready > done[rank]:
                done[rank] = ready
            self._deliver(cast, ready, gpus, prices, done)
        _adopt(t, done)

    def _chain(self, round_: Round, gpus: Sequence[int],
               prices: list[tuple[float, int]], t: list[float]) -> None:
        """Sends one at a time, each landing behind its receiver's clock;
        then every root encodes and each cast is delivered in turn."""
        kernel, send, fresh = self.kernel, self.send, not round_.forward
        for src, dst, chunk, _, _ in round_.sends:
            seconds, nbytes = prices[chunk]
            ready = kernel(gpus[src], seconds, t[src]) if fresh else t[src]
            arrive = send(gpus[src], gpus[dst], nbytes, ready)
            held = t[dst]
            t[dst] = kernel(gpus[dst], seconds,
                            arrive if arrive > held else held)
        if round_.casts:
            done = [_NEVER] * len(gpus)
            for root, chunk, _, _ in round_.casts:  # a rank roots one cast
                done[root] = kernel(gpus[root], prices[chunk][0], t[root])
            sent = list(done)
            for cast in round_.casts:
                if cast.edges:
                    self._deliver(cast, sent[cast.root], gpus, prices, done)
            _adopt(t, done)

    def _deliver(self, cast: Cast, ready: float, gpus: Sequence[int],
                 prices: list[tuple[float, int]], done: list[float]) -> None:
        """``cast``'s receivers, one at a time, decode the payload its root
        encoded by ``ready``; ``done`` keeps each rank's latest decode."""
        kernel, send = self.kernel, self.send
        seconds, nbytes = prices[cast.chunk]
        root = gpus[cast.root]
        for _, dst, _ in cast.edges:
            gpu = gpus[dst]
            end = kernel(gpu, seconds, send(root, gpu, nbytes, ready))
            if end > done[dst]:
                done[dst] = end


def _adopt(t: list[float], done: list[float]) -> None:
    """A rank a fan-out reached ends at its latest encode or decode."""
    t[:] = [held if end == _NEVER else end for held, end in zip(t, done)]


def time_allreduce(
    network: Network,
    ranks: list[int],
    dense_numel: int | tuple[int, Shape],
    spec: CompressionSpec,
    scheme: str = "sra",
    ready: list[float] | float = 0.0,
    chunk_streams: int = 1,
    kernel_factor: float = 1.0,
    job: int | None = None,
) -> CollectiveTiming:
    """Schedule one allreduce of ``dense_numel`` elements over ``ranks``.

    Args:
        network: simulated network (links + per-GPU engines are shared
            state across calls, giving inter-collective contention).
        ranks: participating GPU ids.
        dense_numel: uncompressed element count of the buffer, or the
            ``(numel, shape)`` pair of one tensor, as
            :meth:`CompressionSpec.wire_bytes` takes it — the shape is
            what a factored operator (PowerSGD) factors.
        spec: compression applied to transmitted chunks.  A factored
            operator's collective is its dependent P -> Q pair instead
            (:func:`_time_factor_pair`).
        scheme: one of :data:`SCHEMES`.
        ready: per-rank gradient-ready times (scalar = same for all).
        chunk_streams: parallel compression streams per GPU (the SRA
            chunk-parallel optimization worth ~5% in the paper).
        kernel_factor: multiplier on kernel durations (QNCCL's constrained
            in-library kernels pay ~2x).
        job: owning job id on a shared (multi-job) network — every
            transfer and kernel of this collective is scoped to the job
            for throttling, tracing and per-job accounting.
    """
    if scheme not in SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    world = len(ranks)
    if world < 1:
        raise ValueError("need at least one rank")
    if isinstance(ready, (int, float)):
        ready = [float(ready)] * world
    if len(ready) != world:
        raise ValueError("ready times must match rank count")
    numel, shape = dense_numel if isinstance(dense_numel, tuple) \
        else (dense_numel, None)
    if operator_class(spec.method).factored:
        return _time_factor_pair(network, ranks, numel, shape, spec, scheme,
                                 max(ready), job)
    sched = _Scheduler(network, spec, chunk_streams, kernel_factor, job=job)
    end_times = sched.allreduce(scheme, ranks, numel, ready)
    return CollectiveTiming(end_times, sched.wire_bytes, sched.kernel_calls)


def _time_factor_pair(network: Network, ranks: list[int], numel: int,
                      shape: Shape, spec: CompressionSpec, scheme: str,
                      ready: float, job: int | None) -> CollectiveTiming:
    """PowerSGD's collective: P-allreduce -> orthonormalize -> Q-allreduce.

    Every rank computes P = MQ (one kernel), the P factors are averaged
    by a dense allreduce, every rank orthonormalizes P and computes
    Q = M^T P (a second kernel), and a second dense allreduce averages
    the Q factors (the PyTorch hook's structure).  The factors are
    associative, so both collectives move fp32 and run no kernel of
    their own: the cost is the power-iteration matmuls (Technical
    Issue 1) and the rank-r factor sizes.  The pair launches when the
    last rank is ready, on one compression engine with unscaled
    kernels; a rank-0 tensor (1-D, a row or a column) is one dense
    allreduce.
    """
    rows, cols, rank = _factor_shape(spec, numel, shape)
    sched = _Scheduler(network, _DENSE, job=job)
    if not rank:
        end_times = sched.allreduce(scheme, ranks, numel,
                                    [ready] * len(ranks))
        return CollectiveTiming(end_times, sched.wire_bytes,
                                sched.kernel_calls)
    p_seconds = kernel_seconds(numel * 4,
                               extra_flops=2.0 * rows * cols * rank)
    q_seconds = kernel_seconds(
        numel * 4,
        extra_flops=2.0 * rows * rank * rank + 2.0 * rows * cols * rank)
    t = [sched.factor_kernel(gpu, p_seconds, ready) for gpu in ranks]
    t = sched.allreduce(scheme, ranks, rows * rank, t)
    t = [sched.factor_kernel(gpu, q_seconds, end)
         for gpu, end in zip(ranks, t)]
    end_times = sched.allreduce(scheme, ranks, cols * rank, t)
    return CollectiveTiming(end_times, sched.wire_bytes, sched.kernel_calls)


SCHEMES = (*FLAT_SCHEDULES, "hier")


def drain_channel(items: Sequence[T], ready: Callable[[T], float],
                  priority: Callable[[T], Any],
                  land: Callable[[T, float], float]
                  ) -> list[tuple[T, float, float]]:
    """Drain ``items`` over one communication channel (free from t=0).

    An item seals at ``ready(item)``; whenever the channel frees, the
    sealed-but-unsent item with the smallest ``priority(item)`` (first
    in ``items`` on ties) launches at ``max(channel free, its seal)``
    and holds the channel until ``land(item, launch)``; with nothing
    sealed the channel idles to the earliest seal.  The selection rule
    is total, so the schedule is a pure function of the inputs.

    This is the one first-needed-first-sent drain of the runtime: the
    engine's bucket timeline (:func:`repro.core.overlap.schedule_buckets`,
    ``land = launch + injected comm``) and both drains of
    :func:`time_overlapped_step` (``land`` = the collective's end on the
    simulated network) are callers that differ only in ``land``.

    Returns ``(item, launch, landed)`` triples in launch order.
    """
    seals = [ready(item) for item in items]
    pending = list(range(len(items)))
    free = 0.0
    launched: list[tuple[T, float, float]] = []
    while pending:
        sealed = [i for i in pending if seals[i] <= free]
        if not sealed:
            free = min(seals[i] for i in pending)
            continue
        chosen = min(sealed, key=lambda i: priority(items[i]))
        pending.remove(chosen)
        launch = max(free, seals[chosen])
        free = land(items[chosen], launch)
        launched.append((items[chosen], launch, free))
    return launched


@dataclass(frozen=True)
class TimedBucket:
    """One fusion bucket queued for overlapped transmission.

    ``ready`` is the seal time (the last member gradient's emission);
    ``first_needed`` / ``min_index`` reproduce the engine's
    first-needed-first-sent launch priority (see
    :func:`repro.core.overlap.schedule_buckets`).
    """

    name: str
    numel: int
    spec: CompressionSpec
    ready: float
    first_needed: int = 0
    min_index: int = 0


@dataclass
class OverlapStepTiming:
    """Timed comparison of overlapped vs. sequential bucket drains."""

    intervals: list[tuple[str, float, float]]  # (bucket, launch, end)
    overlapped_end: float
    sequential_end: float
    wire_bytes: int
    kernel_calls: int

    @property
    def overlap_ratio(self) -> float:
        """Sequential step time over overlapped step time (>1 is a win)."""
        if self.overlapped_end <= 0:
            return 1.0
        return self.sequential_end / self.overlapped_end


def time_overlapped_step(
    network: Network,
    ranks: list[int],
    buckets: list[TimedBucket],
    scheme: str = "sra",
    compute_end: float | None = None,
) -> OverlapStepTiming:
    """Time one training step's gradient exchange with and without overlap.

    The overlapped drain launches each bucket's allreduce on ``network``
    as soon as the single communication channel frees up and the bucket
    has sealed, choosing among sealed buckets by
    ``(first_needed, min_index)`` — the engine's launch discipline.  The
    sequential baseline replays the same buckets on a *fresh* network
    (same topology and backend), all starting only after ``compute_end``
    (backward fully finished), which is exactly what a
    synchronize-at-the-end DDP step costs.

    Wire bytes and kernel calls are accounted on the overlapped path;
    the sequential path moves identical payloads.
    """
    if not buckets:
        end = compute_end if compute_end is not None else 0.0
        return OverlapStepTiming([], end, end, 0, 0)
    backward_end = compute_end if compute_end is not None \
        else max(b.ready for b in buckets)

    def land_on(net: Network, timings: list[CollectiveTiming]
                ) -> Callable[[TimedBucket, float], float]:
        def land(bucket: TimedBucket, launch: float) -> float:
            timings.append(time_allreduce(
                net, ranks, bucket.numel, bucket.spec, scheme=scheme,
                ready=launch))
            return timings[-1].end
        return land

    timings: list[CollectiveTiming] = []
    intervals = [
        (bucket.name, launch, end) for bucket, launch, end in drain_channel(
            buckets, lambda b: b.ready,
            lambda b: (b.first_needed, b.min_index), land_on(network, timings))
    ]
    overlapped_end = max(backward_end, max(end for _, _, end in intervals))

    # the sequential baseline is the degenerate schedule: every bucket
    # seals at the end of backward and drains in emission order on a
    # fresh network
    baseline = drain_channel(
        buckets, lambda b: backward_end, lambda b: b.min_index,
        land_on(Network(network.topology, network.backend), []))
    return OverlapStepTiming(intervals, overlapped_end, baseline[-1][2],
                             sum(t.wire_bytes for t in timings),
                             sum(t.kernel_calls for t in timings))


def time_partial_allreduce(
    network: Network,
    ranks: list[int],
    dense_numel: int,
    spec: CompressionSpec,
    quorum: int,
    ready: list[float],
    chunk_streams: int = 1,
) -> CollectiveTiming:
    """Timed quorum reduction: reduce over the first ``quorum`` ready
    ranks, then ship the result to the laggards.

    Prices :func:`~.schedules.partial_schedule` with the ranks ordered by
    readiness (ties by rank): the quorum is the ``quorum`` earliest, its
    earliest member is rank 0 of the quorum SRA and sends the late
    broadcast, and the laggards receive it in ready order.  The quorum
    reduces even when it is one rank (its aggregate is still encoded).
    Fast ranks finish at the quorum-SRA end — the late broadcast's
    encode is off their books; laggards finish at ``max(own readiness,
    broadcast arrival)`` — they are never waited for, which is the whole
    point (straggler mitigation).
    """
    world = len(ranks)
    if not 1 <= quorum <= world:
        raise ValueError(f"quorum must be in [1, {world}], got {quorum}")
    if len(ready) != world:
        raise ValueError("ready times must match rank count")
    if world == 1:
        return CollectiveTiming([ready[0]], 0, 0)

    order = sorted(range(world), key=lambda i: ready[i])
    stage, late = partial_schedule(tuple(order[:quorum]),
                                   tuple(order[quorum:])).rounds
    sched = _Scheduler(network, spec, streams=chunk_streams)
    members, end_times = stage.members, list(ready)
    for idx, end in zip(members, sched.run(
            stage.schedule, [ranks[i] for i in members], dense_numel,
            [sched.op_start(ready[i]) for i in members])):
        end_times[idx] = end
    late_ends = list(end_times)
    sched._chain(late, ranks, [sched.price(dense_numel)], late_ends)
    for idx in order[quorum:]:
        end_times[idx] = max(ready[idx], late_ends[idx])
    return CollectiveTiming(end_times, sched.wire_bytes, sched.kernel_calls)
