"""The CGX communication engine: package planning and data-path reduction.

The engine turns a model's gradient tensors into *packages* (the unit of
one collective call) according to the configuration:

* **CGX mode** — one package per compressed layer (compression is
  per-layer, never across concatenated tensors with different
  distributions), plus one fused fp32 package for all filtered tensors.
* **Fused (blob) mode** — the NCCL-baseline / QNCCL behaviour: tensors
  are concatenated into fusion buffers of ~25 MB regardless of layer
  boundaries, and whatever compression applies is uniform over the blob.

The same plan drives both the real data path (:meth:`reduce`) used in
accuracy experiments and the timed path in :mod:`repro.training.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.collectives import PartialAllreduce, ReduceStats, allreduce
from repro.compression import CompressionSpec, Compressor, make_compressor
from repro.compression.base import Shape, operator_class
from repro.compression.topk import ErrorFeedback

from .config import CGXConfig
from .filters import LayerFilter, LayerInfo

__all__ = ["Package", "CommunicationEngine", "ReductionReport",
           "group_for_transmission", "fuse_group"]


@dataclass(frozen=True)
class Package:
    """A group of tensors reduced in one collective call."""

    name: str
    layers: tuple[LayerInfo, ...]
    spec: CompressionSpec

    @cached_property
    def numel(self) -> int:
        # computed on first read and kept in the instance ``__dict__``
        # (``cached_property`` bypasses the frozen ``__setattr__``); not a
        # field, so equality and hashing still see name, layers and spec
        return sum(layer.numel for layer in self.layers)

    @property
    def shape(self) -> Shape:
        """The one layer's shape; ``None`` (flat) for a multi-layer
        package.  With :attr:`numel` it is the ``(numel, shape)`` pair
        the timed path prices."""
        return self.layers[0].shape if len(self.layers) == 1 else None

    def wire_bytes(self) -> int:
        return self.spec.wire_bytes(self.numel)


@dataclass
class ReductionReport:
    """Aggregate statistics of one synchronization step."""

    packages: int = 0
    wire_bytes: int = 0      # actual bytes moved by the collectives
    payload_bytes: int = 0   # one-copy compressed size of the model gradient
    dense_bytes: int = 0     # one-copy fp32 size of the model gradient
    compress_calls: int = 0
    retries: int = 0         # fault-channel retransmissions this step
    retransmit_bytes: int = 0  # extra wire bytes those retries moved
    quorum_world: int | None = None  # participant count when degraded
    per_package: list[tuple[str, ReduceStats]] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """Dense gradient bytes over compressed payload bytes (>= 1)."""
        if self.payload_bytes == 0:
            return 1.0
        return self.dense_bytes / self.payload_bytes


@dataclass
class _Reduction:
    """One step's validated inputs and accumulating outputs — the state
    :meth:`CommunicationEngine.reduce` and ``reduce_overlapped`` share."""

    grads: list[dict[str, np.ndarray]]
    rng: np.random.Generator
    layers: list[LayerInfo]        # forward (dict) order
    quorum: list[int]
    scale: float                   # averaging factor applied on scatter
    outputs: list[dict[str, np.ndarray]]
    report: ReductionReport


class CommunicationEngine:
    """Plans packages and executes real-data reductions."""

    def __init__(self, config: CGXConfig | None = None,
                 node_of: list[int] | None = None):
        #: may be replaced between steps (a frontend following its
        #: session); compressor state carries over, see _compressor_for
        self.config = config or CGXConfig()
        self.node_of = node_of  # rank -> node, for the hierarchical scheme
        self._compressors: dict[str, Compressor | ErrorFeedback] = {}
        # per-package quorum reducers, created on first degraded step so
        # carry buffers persist until the skipped mass has drained
        self._partials: dict[str, PartialAllreduce] = {}
        # residuals restored from a checkpoint before their package's
        # compressor exists; consumed lazily by _compressor_for
        self._pending_residuals: dict[str, dict] = {}

    @property
    def filter(self) -> LayerFilter:
        """The current config's full-precision filter."""
        return LayerFilter(self.config.filtered_keywords,
                           self.config.min_compress_numel)

    # -- planning ----------------------------------------------------------
    def plan(self, layers: list[LayerInfo], mode: str = "cgx") -> list[Package]:
        """Build the package list for ``layers`` (in emission order)."""
        if mode == "cgx":
            return self._plan_cgx(layers)
        if mode == "fused":
            return self._plan_fused(layers)
        raise ValueError(f"unknown plan mode {mode!r}")

    def _plan_cgx(self, layers: list[LayerInfo]) -> list[Package]:
        compressed, filtered = self.filter.partition(layers)
        packages = [
            Package(layer.name, (layer,), self.config.spec_for(layer.name))
            for layer in compressed
        ]
        if filtered:
            packages.append(Package("filtered", tuple(filtered),
                                    CompressionSpec("none")))
        return packages

    def _plan_fused(self, layers: list[LayerInfo]) -> list[Package]:
        packages: list[Package] = []
        bucket: list[LayerInfo] = []
        bucket_bytes = 0
        for layer in layers:
            bucket.append(layer)
            bucket_bytes += layer.numel * 4
            if bucket_bytes >= self.config.fusion_bytes:
                packages.append(
                    Package(f"fused{len(packages)}", tuple(bucket),
                            self.config.compression)
                )
                bucket, bucket_bytes = [], 0
        if bucket:
            packages.append(
                Package(f"fused{len(packages)}", tuple(bucket),
                        self.config.compression)
            )
        return packages

    # -- data path -----------------------------------------------------------
    def _reduce_package(
        self,
        package: Package,
        buffers: list[np.ndarray],
        rng: np.random.Generator,
        quorum: list[int],
        subset: bool,
    ) -> tuple[list[np.ndarray], ReduceStats]:
        """One package through the scheme or its quorum reducer.

        A strict-subset quorum routes through :class:`PartialAllreduce`
        (carry buffers bank the skipped contributions); once degraded a
        package stays on the quorum reducer until its carries drain.
        Keyed by package name, so sequential and overlapped mode (both
        through :meth:`_reduce_and_account`) see identical quorum/carry
        semantics.
        """
        world = len(buffers)
        compressor = self._compressor_for(package)
        reducer = self._partials.get(package.name)
        if subset or reducer is not None:
            if reducer is None or reducer.world != world:
                reducer = PartialAllreduce(world)
                self._partials[package.name] = reducer
            reduced, stats = reducer.reduce(buffers, quorum, compressor,
                                            rng, key=package.name)
            if not subset and not reducer.has_carries():
                # carries drained under full participation: return the
                # package to the configured scheme next step
                del self._partials[package.name]
        else:
            reduced, stats = allreduce(self.config.scheme, buffers,
                                       compressor, rng, key=package.name,
                                       node_of=self.node_of)
        return reduced, stats

    def _compressor_for(self, package: Package) -> Compressor | ErrorFeedback:
        """Per-package compressor, cached so stateful methods keep state.

        When the adaptive policy changes a package's spec without
        changing the method, error-feedback residuals carry over to the
        rebuilt compressor: they are in gradient units, independent of
        density/bit-width, and dropping them loses the compression error
        of the last step (the convergence guarantee assumes the residual
        is *always* folded back in).
        """
        comp = self._compressors.get(package.name)
        if comp is None or comp.spec != package.spec:
            fresh: Compressor | ErrorFeedback = make_compressor(package.spec)
            if package.spec.error_feedback:
                fresh = ErrorFeedback(fresh)
                if (isinstance(comp, ErrorFeedback)
                        and comp.spec.method == package.spec.method):
                    fresh.adopt_residuals(comp)
            self._compressors[package.name] = fresh
            comp = fresh
        if isinstance(comp, ErrorFeedback) \
                and package.name in self._pending_residuals:
            comp.load_residual_state(
                self._pending_residuals.pop(package.name))
        return comp

    def banked_carry_norm(self) -> float:
        """Total gradient mass banked in the quorum carry buffers.

        The elastic drain gate: membership may only grow or shrink when
        this is zero, because :class:`PartialAllreduce` carries are
        keyed by buffer index and changing the buffer list while mass
        is banked would orphan it (certified by ELA001).
        """
        return sum(reducer.total_carry_norm()
                   for reducer in self._partials.values())

    # -- checkpointable state ------------------------------------------------
    def state_dict(self) -> dict:
        """Stateful pieces of the engine: EF residuals, quorum carries.

        Everything else the engine holds (plans, compressor caches) is
        a pure function of the config and layer list, so this plus the
        config is enough for bit-identical resume.
        """
        residuals = {name: comp.residual_state()
                     for name, comp in sorted(self._compressors.items())
                     if isinstance(comp, ErrorFeedback)}
        for name, pending in self._pending_residuals.items():
            residuals.setdefault(name, dict(pending))
        partials = {name: {"world": reducer.world,
                           "carries": reducer.carry_state()}
                    for name, reducer in sorted(self._partials.items())}
        return {"error_feedback": residuals, "partials": partials}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (fresh or live engine)."""
        self._partials = {}
        for name, entry in state.get("partials", {}).items():
            reducer = PartialAllreduce(int(entry["world"]))
            reducer.load_carry_state(entry["carries"])
            self._partials[name] = reducer
        self._pending_residuals = {name: dict(res) for name, res
                                   in state.get("error_feedback", {}).items()}
        for name, comp in self._compressors.items():
            if isinstance(comp, ErrorFeedback) \
                    and name in self._pending_residuals:
                comp.load_residual_state(self._pending_residuals.pop(name))

    def _begin_reduction(
        self,
        per_worker_grads: list[dict[str, np.ndarray]],
        rng: np.random.Generator,
        participants: list[int] | None,
        average: bool,
        average_over: int | None,
        report: ReductionReport,
    ) -> _Reduction:
        """The one input-validation prologue of both reduction modes."""
        if not per_worker_grads:
            raise ValueError("need at least one worker")
        names = list(per_worker_grads[0])
        for i, grads in enumerate(per_worker_grads):
            if list(grads) != names:
                raise ValueError(f"worker {i} gradient names differ")
        world = len(per_worker_grads)
        layers = [
            LayerInfo(name, per_worker_grads[0][name].size,
                      tuple(per_worker_grads[0][name].shape))
            for name in names
        ]
        quorum = sorted(set(participants)) if participants is not None \
            else list(range(world))
        if any(not 0 <= p < world for p in quorum):
            raise ValueError("participant rank out of range")
        if len(quorum) < world:
            report.quorum_world = len(quorum)
        report.dense_bytes = sum(layer.numel * 4 for layer in layers)
        return _Reduction(
            grads=per_worker_grads, rng=rng, layers=layers, quorum=quorum,
            scale=1.0 / (average_over or world) if average else 1.0,
            outputs=[dict() for _ in range(world)], report=report)

    def _reduce_and_account(self, red: _Reduction, package: Package
                            ) -> None:
        """Gather → reduce → scatter → account, for one package.

        The single per-package step of the data path; ``reduce`` runs it
        in plan order, ``reduce_overlapped`` in bucket launch order.
        """
        world = len(red.grads)
        buffers = [_gather_package(red.grads[w], package)
                   for w in range(world)]
        reduced, stats = self._reduce_package(
            package, buffers, red.rng, red.quorum,
            subset=len(red.quorum) < world)
        # every scheme returns each worker a buffer of its own, apart
        # from the other workers' and the caller's gradients
        # (tests/test_engine_aliasing.py), so the average scales in place
        for w in range(world):
            reduced[w] *= red.scale
            _scatter_package(red.outputs[w], reduced[w], package)
        report = red.report
        report.packages += 1
        report.wire_bytes += stats.wire_bytes
        report.payload_bytes += package.wire_bytes()
        report.compress_calls += stats.compress_calls
        report.retries += stats.retries
        report.retransmit_bytes += stats.retransmit_bytes
        report.per_package.append((package.name, stats))

    def reduce(
        self,
        per_worker_grads: list[dict[str, np.ndarray]],
        rng: np.random.Generator,
        mode: str = "cgx",
        average: bool = True,
        participants: list[int] | None = None,
        average_over: int | None = None,
    ) -> tuple[list[dict[str, np.ndarray]], ReductionReport]:
        """Reduce named gradients across workers through the plan.

        Args:
            per_worker_grads: one {tensor name: gradient} dict per worker;
                all workers must hold the same names and shapes.
            rng: shared randomness (quantization decisions are made once
                on the wire, identically for every receiving worker).
            mode: ``cgx`` or ``fused`` planning.
            average: divide by world size after summation.
            participants: graceful-degradation quorum.  ``None`` (or all
                ranks) runs the configured scheme; a strict subset routes
                every package through a :class:`PartialAllreduce`, whose
                carry buffers bank the skipped contributions.  Once a
                package has degraded it stays on the quorum reducer until
                its carries drain, so no gradient mass is lost.
            average_over: divisor for the average (default: world size).
                Elastic membership passes the number of *contributing*
                ranks so crashed workers do not dilute the mean.

        Returns:
            (per-worker reduced gradients, aggregate report).
        """
        red = self._begin_reduction(per_worker_grads, rng, participants,
                                    average, average_over, ReductionReport())
        for package in self.plan(red.layers, mode=mode):
            self._reduce_and_account(red, package)
        return red.outputs, red.report

    def reduce_overlapped(
        self,
        per_worker_grads: list[dict[str, np.ndarray]],
        rng: np.random.Generator,
        ready_order: list[str] | None = None,
        participants: list[int] | None = None,
        average_over: int | None = None,
        step: int = 0,
        delays=None,
    ):
        """Overlapped-mode reduction: per-layer enqueue, fused buckets.

        The async counterpart of :meth:`reduce` (cgx planning only); it
        always averages, over ``average_over`` or the world.  Each layer
        becomes its own package the moment its gradient is emitted
        (``ready_order``, default reverse forward order);
        consecutive same-spec packages fuse into ``fusion_bytes``
        transmission buckets, and buckets drain over one simulated
        communication channel in first-needed-first-sent order.  The
        reduction *math* is untouched — every inner package keeps its
        own compressor, error-feedback residuals and quorum carries
        keyed by layer name — so for deterministic compressors the
        reduced values are bit-identical to per-layer sequential mode;
        only the simulated timeline (and, for stochastic compressors,
        the shared-rng consumption order) differs.

        Emits ``grad_ready`` / ``reduce_enqueued`` / ``reduce_landed``
        overlap events in simulated-time order onto the active trace;
        ``delays`` (an :class:`~repro.core.overlap.OverlapDelays`)
        injects the compute/transfer intervals, defaulting to a
        size-proportional envelope.

        Returns (per-worker reduced gradients,
        :class:`~repro.core.overlap.OverlapReport`).
        """
        from .overlap import (OverlapDelays, OverlapReport, assemble_buckets,
                              layer_ready_times, schedule_buckets)
        from repro.collectives.trace import emit_overlap, timeline_position

        report = OverlapReport()
        red = self._begin_reduction(per_worker_grads, rng, participants,
                                    True, average_over, report)
        layers = {layer.name: layer for layer in red.layers}
        if ready_order is None:
            ready_order = list(reversed(layers))
        if sorted(ready_order) != sorted(layers):
            raise ValueError("ready_order must be a permutation of the "
                             "gradient names")
        forward_pos = {name: i for i, name in enumerate(layers)}
        # per-layer packages in emission order; the filter decides the
        # spec (filtered layers ride fp32 per-layer packages — bucket
        # fusion regroups them, replacing sequential mode's one fused
        # "filtered" package)
        fp32 = CompressionSpec("none")
        excluded = self.filter.excluded
        packages = [
            Package(name, (layers[name],),
                    fp32 if excluded(layers[name])
                    else self.config.spec_for(name))
            for name in ready_order
        ]
        buckets = assemble_buckets(packages, forward_pos,
                                   self.config.fusion_bytes)
        if delays is None:
            delays = OverlapDelays.default_for(
                {name: info.numel for name, info in layers.items()})
        ready = layer_ready_times(ready_order, delays)
        launch_order = schedule_buckets(
            buckets, ready, lambda b: delays.bucket_comm(b.wire_bytes))

        report.buckets = list(buckets)
        report.compute_end = max(ready.values()) if ready else 0.0
        report.comm_total = sum(b.landed_t - b.launch_t for b in buckets)
        report.overlapped_time = max(
            [report.compute_end] + [b.landed_t for b in buckets])
        report.sequential_time = report.compute_end + report.comm_total

        # chronology: emit lifecycle events in simulated-time order;
        # each bucket's data path executes at its landing, bracketed by
        # exec_span for the certifier's in-flight attribution
        actions: list[tuple[float, int, int, str, object]] = []
        for seq, name in enumerate(ready_order):
            actions.append((ready[name], 0, seq, "ready", name))
        for seq, bucket in enumerate(buckets):
            actions.append((bucket.ready_t, 1, seq, "enqueue", bucket))
        for seq, bucket in enumerate(launch_order):
            actions.append((bucket.landed_t, 2, seq, "land", bucket))
        actions.sort(key=lambda a: (a[0], a[1], a[2]))

        for t, _, _, kind, payload in actions:
            if kind == "ready":
                emit_overlap("grad_ready", step, t, layer=str(payload))
                continue
            bucket = payload
            if kind == "enqueue":
                emit_overlap("reduce_enqueued", step, t, bucket=bucket.name,
                             first_needed=bucket.first_needed)
                continue
            exec_start = timeline_position()
            for package in bucket.packages:
                self._reduce_and_account(red, package)
            bucket.exec_span = (exec_start, timeline_position())
            emit_overlap("reduce_landed", step, t, bucket=bucket.name,
                         first_needed=bucket.first_needed)
        return red.outputs, report


def group_for_transmission(packages: list[Package],
                           fusion_bytes: int) -> list[list[Package]]:
    """Group consecutive same-spec compressed packages into one collective.

    CGX compresses *per layer* (each layer keeps its own buckets and
    spec) but groups the transmissions of consecutive small layers so a
    many-layer CNN does not pay one collective's latency per 100 KB
    tensor (Section 4, "Improved Scheduling": filtering and grouping
    remove extra kernel calls "without notable increase of communication
    costs").  Packages above the fusion threshold travel alone.

    Returns the member packages of each collective, in order.  Shared
    by the timed perf model (group-per-collective scheduling) and the
    overlapped engine mode (transmission buckets).
    """
    grouped: list[list[Package]] = []
    pending: list[Package] = []
    pending_bytes = 0

    def flush() -> None:
        nonlocal pending, pending_bytes
        if pending:
            grouped.append(pending)
        pending, pending_bytes = [], 0

    for package in packages:
        dense = package.numel * 4
        if (pending and (package.spec != pending[0].spec
                         or pending_bytes + dense > fusion_bytes)):
            flush()
        # a factored operator's factors are per matrix (PowerSGD): its
        # packages never group
        if (dense > fusion_bytes
                or operator_class(package.spec.method).factored):
            flush()
            grouped.append([package])
            continue
        pending.append(package)
        pending_bytes += dense
    flush()
    return grouped


def fuse_group(group: list[Package]) -> Package:
    """One collective's package: a lone member as is, a run of several
    fused into ``group[first..last]``."""
    if len(group) == 1:
        return group[0]
    return Package(f"group[{group[0].name}..{group[-1].name}]",
                   tuple(l for pkg in group for l in pkg.layers),
                   group[0].spec)


def _gather_package(grads: dict[str, np.ndarray], package: Package) -> np.ndarray:
    """Concatenate a worker's gradients for one package into a flat buffer."""
    if len(package.layers) == 1:
        return grads[package.layers[0].name].ravel()
    return np.concatenate([grads[l.name].ravel() for l in package.layers])


def _scatter_package(out: dict[str, np.ndarray], flat: np.ndarray,
                     package: Package) -> None:
    """Split a reduced flat buffer back into named, shaped gradients.

    Multi-layer packages copy each chunk so no two outputs alias the
    shared flat buffer — an optimizer mutating one layer's gradient
    in place must not corrupt its neighbours.  A single-layer package's
    view is the sole owner of the (freshly allocated) buffer, so it is
    returned without the extra copy.
    """
    shared = len(package.layers) > 1
    offset = 0
    for layer in package.layers:
        chunk = flat[offset:offset + layer.numel]
        if shared:
            chunk = chunk.copy()
        out[layer.name] = chunk.reshape(layer.shape or (layer.numel,))
        offset += layer.numel
