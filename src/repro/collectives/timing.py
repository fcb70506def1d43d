"""Timed collective schedules over the simulated network.

The data-path modules in this package measure *what* a scheme computes;
this module measures *when*.  Each ``time_*`` function replays the exact
transfer/kernel pattern of its scheme onto a
:class:`~repro.cluster.network.Network`, occupying links and per-GPU
compression engines, and returns per-rank completion times.  The
performance model (``repro.training.perf``) composes these per fusion
buffer to obtain end-to-end step times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from repro.cluster.network import Network
from repro.compression import CompressionSpec
from repro.compression.base import Shape, operator_class
from repro.compression.metrics import kernel_seconds
from repro.compression.powersgd import _factor_shape

from .base import chunk_bounds

__all__ = ["CollectiveTiming", "time_allreduce",
           "time_partial_allreduce", "SCHEMES", "drain_channel",
           "TimedBucket", "OverlapStepTiming", "time_overlapped_step"]

T = TypeVar("T")
#: what a factored operator's P and Q factors travel as
_DENSE = CompressionSpec("none")


@dataclass
class CollectiveTiming:
    """Result of scheduling one collective."""

    end_times: list[float]   # completion per participating rank
    wire_bytes: int          # payload bytes put on links
    kernel_calls: int        # compression-engine invocations

    @property
    def end(self) -> float:
        return max(self.end_times)


def _chunk_sizes(numel: int, n_chunks: int) -> list[int]:
    """Element counts of the data path's chunks (one chunking rule)."""
    return [end - start for start, end in chunk_bounds(numel, n_chunks)]


class _Scheduler:
    """One collective's binding of a network, a spec and its accounting.

    Whatever stays fixed for the collective is bound here once — the
    network's two entry points as bound methods, the compression engine
    names, and each distinct chunk size's price — so a message or kernel
    costs its entry-point call and a few integer updates.  The schemes
    price their chunks once (:meth:`price`) and hand :meth:`kernel` and
    :meth:`send` the seconds and bytes directly.
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
        self._stream_rr: dict[int, int] = {}
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
        rr = self._stream_rr
        stream = rr.get(gpu, 0)
        rr[gpu] = (stream + 1) % self.streams
        self.kernel_calls += 1
        return self._run_kernel(gpu, self._engine_names[stream], seconds,
                                ready, self.job)

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
        start = [self.op_start(t) for t in ready]
        if scheme not in _TIMED_SCHEMES:
            raise KeyError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        return _TIMED_SCHEMES[scheme](self, ranks, numel, start)


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


def _time_sra(sched: _Scheduler, ranks: list[int], numel: int,
              start: list[float]) -> list[float]:
    world = len(ranks)
    prices = [sched.price(size) for size in _chunk_sizes(numel, world)]
    kernel, send = sched.kernel, sched.send

    # Phase 1: each rank compresses and sends every foreign chunk.
    arrivals: list[list[float]] = [[] for _ in range(world)]
    for sender in range(world):
        src = ranks[sender]
        t = start[sender]
        for owner in range(world):
            if owner == sender:
                continue
            seconds, nbytes = prices[owner]
            t = kernel(src, seconds, t)
            arrivals[owner].append(send(src, ranks[owner], nbytes, t))

    # Owners decompress+accumulate each arrival, then compress the
    # aggregate and broadcast it.  (``a if a > b else b`` is ``max(b, a)``
    # without the call, ties and NaN included.)
    final_arrival = list(start)
    for owner in range(world):
        gpu = ranks[owner]
        seconds, nbytes = prices[owner]
        t = start[owner]
        for arrive in sorted(arrivals[owner]):
            t = kernel(gpu, seconds, arrive if arrive > t else t)
        t = kernel(gpu, seconds, t)  # encode aggregate
        for receiver in range(world):
            if receiver == owner:
                continue
            peer = ranks[receiver]
            done = kernel(peer, seconds, send(gpu, peer, nbytes, t))
            if done > final_arrival[receiver]:
                final_arrival[receiver] = done
        if t > final_arrival[owner]:
            final_arrival[owner] = t
    return final_arrival


def _time_ring(sched: _Scheduler, ranks: list[int], numel: int,
               start: list[float]) -> list[float]:
    world = len(ranks)
    prices = [sched.price(size) for size in _chunk_sizes(numel, world)]
    kernel, send = sched.kernel, sched.send
    t = list(start)

    # Reduce-scatter: N-1 rounds of neighbor sends with re-compression.
    for step in range(world - 1):
        arrivals = [0.0] * world
        for rank in range(world):
            seconds, nbytes = prices[(rank - step) % world]
            right = (rank + 1) % world
            ready = kernel(ranks[rank], seconds, t[rank])
            arrivals[right] = send(ranks[rank], ranks[right], nbytes, ready)
        for rank in range(world):
            arrive, held = arrivals[rank], t[rank]
            t[rank] = kernel(ranks[rank], prices[(rank - 1 - step) % world][0],
                             arrive if arrive > held else held)

    # Allgather: N-1 rounds forwarding final payloads (no re-encode after
    # the first hop; decompress once on arrival of each chunk).
    for rank in range(world):
        t[rank] = kernel(ranks[rank], prices[(rank + 1) % world][0], t[rank])
    for step in range(world - 1):
        arrivals = [0.0] * world
        for rank in range(world):
            right = (rank + 1) % world
            arrivals[right] = send(ranks[rank], ranks[right],
                                   prices[(rank + 1 - step) % world][1],
                                   t[rank])
        for rank in range(world):
            arrive, held = arrivals[rank], t[rank]
            t[rank] = kernel(ranks[rank], prices[(rank - step) % world][0],
                             arrive if arrive > held else held)
    return t


def _time_tree(sched: _Scheduler, ranks: list[int], numel: int,
               start: list[float]) -> list[float]:
    world = len(ranks)
    seconds, nbytes = sched.price(numel)
    kernel, send = sched.kernel, sched.send
    t = list(start)
    stride = 1
    while stride < world:
        for receiver in range(0, world - stride, 2 * stride):
            sender = receiver + stride
            ready = kernel(ranks[sender], seconds, t[sender])
            arrive = send(ranks[sender], ranks[receiver], nbytes, ready)
            held = t[receiver]
            t[receiver] = kernel(ranks[receiver], seconds,
                                 arrive if arrive > held else held)
        stride *= 2
    # Broadcast down the same tree.
    t[0] = kernel(ranks[0], seconds, t[0])
    stride //= 2
    while stride >= 1:
        for sender in range(0, world - stride, 2 * stride):
            receiver = sender + stride
            arrive = send(ranks[sender], ranks[receiver], nbytes, t[sender])
            t[receiver] = kernel(ranks[receiver], seconds, arrive)
        stride //= 2
    return t


def _time_allgather(sched: _Scheduler, ranks: list[int], numel: int,
                    start: list[float]) -> list[float]:
    world = len(ranks)
    seconds, nbytes = sched.price(numel)
    kernel, send = sched.kernel, sched.send
    encoded = [kernel(ranks[r], seconds, start[r]) for r in range(world)]
    done = list(encoded)
    for sender in range(world):
        src, ready = ranks[sender], encoded[sender]
        for receiver in range(world):
            if receiver == sender:
                continue
            peer = ranks[receiver]
            decoded = kernel(peer, seconds, send(src, peer, nbytes, ready))
            if decoded > done[receiver]:
                done[receiver] = decoded
    return done


def _time_ps(sched: _Scheduler, ranks: list[int], numel: int,
             start: list[float]) -> list[float]:
    world = len(ranks)
    seconds, nbytes = sched.price(numel)
    kernel, send = sched.kernel, sched.send
    root = ranks[0]
    t_root = start[0]
    for sender in range(1, world):
        ready = kernel(ranks[sender], seconds, start[sender])
        arrive = send(ranks[sender], root, nbytes, ready)
        t_root = kernel(root, seconds, arrive if arrive > t_root else t_root)
    t_root = kernel(root, seconds, t_root)
    done = [t_root] * world
    for receiver in range(1, world):
        peer = ranks[receiver]
        done[receiver] = kernel(peer, seconds, send(root, peer, nbytes, t_root))
    return done


def _time_hier(sched: _Scheduler, ranks: list[int], numel: int,
               start: list[float]) -> list[float]:
    """Hierarchical: intra-node SRA, inter-node SRA of leaders, broadcast.

    Falls back to flat SRA when all ranks share a node.  Inter-node
    traffic is one compressed gradient per node instead of one per GPU,
    which is what keeps gigabit inter-node links usable (Table 5).
    """
    node_of = sched.net.topology.node_of
    by_node: dict[int, list[int]] = {}
    for idx, rank in enumerate(ranks):
        by_node.setdefault(node_of[rank], []).append(idx)
    if len(by_node) == 1:
        return _time_sra(sched, ranks, numel, start)

    # Stage 1: intra-node allreduce (SRA inside each node).
    t = list(start)
    leaders: list[int] = []
    for node in sorted(by_node):
        local = by_node[node]
        leaders.append(local[0])
        if len(local) == 1:
            continue
        local_ranks = [ranks[i] for i in local]
        local_start = [t[i] for i in local]
        local_end = _time_sra(sched, local_ranks, numel, local_start)
        for i, end in zip(local, local_end):
            t[i] = end

    # Stage 2: inter-node allreduce among leaders.
    leader_ranks = [ranks[i] for i in leaders]
    leader_start = [t[i] for i in leaders]
    leader_end = _time_sra(sched, leader_ranks, numel, leader_start)
    for i, end in zip(leaders, leader_end):
        t[i] = end

    # Stage 3: leaders broadcast the final payload to local peers.
    seconds, nbytes = sched.price(numel)
    kernel, send = sched.kernel, sched.send
    for node, leader in zip(sorted(by_node), leaders):
        src = ranks[leader]
        ready = t[leader] = kernel(src, seconds, t[leader])
        for i in by_node[node]:
            if i == leader:
                continue
            t[i] = kernel(ranks[i], seconds,
                          send(src, ranks[i], nbytes, ready))
    return t


_TIMED_SCHEMES = {"sra": _time_sra, "ring": _time_ring, "tree": _time_tree,
                  "allgather": _time_allgather, "ps": _time_ps,
                  "hier": _time_hier}
SCHEMES = tuple(_TIMED_SCHEMES)


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

    Fast ranks finish at the quorum-SRA end; laggards finish at
    ``max(own readiness, broadcast arrival)`` — they are never waited
    for, which is the whole point (straggler mitigation).
    """
    world = len(ranks)
    if not 1 <= quorum <= world:
        raise ValueError(f"quorum must be in [1, {world}], got {quorum}")
    if len(ready) != world:
        raise ValueError("ready times must match rank count")
    if world == 1:
        return CollectiveTiming([ready[0]], 0, 0)

    order = sorted(range(world), key=lambda i: ready[i])
    members = order[:quorum]
    laggards = order[quorum:]

    sched = _Scheduler(network, spec, streams=chunk_streams)
    member_ranks = [ranks[i] for i in members]
    member_start = [sched.op_start(ready[i]) for i in members]
    member_end = _time_sra(sched, member_ranks, dense_numel, member_start)

    end_times = [0.0] * world
    for idx, end in zip(members, member_end):
        end_times[idx] = end
    source = members[0]
    seconds, nbytes = sched.price(dense_numel)
    encode_done = sched.kernel(ranks[source], seconds, end_times[source])
    for idx in laggards:
        arrive = sched.send(ranks[source], ranks[idx], nbytes, encode_done)
        done = sched.kernel(ranks[idx], seconds, arrive)
        end_times[idx] = max(ready[idx], done)
    return CollectiveTiming(end_times, sched.wire_bytes, sched.kernel_calls)
