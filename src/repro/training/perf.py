"""End-to-end step-time model: compute/communication overlap makespan.

For one data-parallel training step the model:

1. computes each GPU's forward+backward time from the calibrated GPU
   envelope (Table 1 anchors);
2. lays the backward pass on a timeline — each tensor's gradient becomes
   available after the backward work of all layers *above* it, which is
   why input embeddings are "synchronized last" (Appendix E);
3. plans communication packages through the CGX engine (per-layer for
   CGX, fused blobs for the NCCL baseline and QNCCL);
4. schedules every package's collective on the simulated network as soon
   as its gradients are ready, overlapping with the remaining backward
   compute; links and compression engines are shared resources, so
   contention between packages emerges naturally;
5. the step ends at max(backward end, last package end) plus the
   optimizer update (which needs the full synchronized gradient —
   gradient clipping forces this barrier, Technical Issue 3).

Throughput and scaling efficiency follow directly.  All of Figures 1,
3, 6, 9, 10, 11 and Tables 4-8 are projections of this function.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import Machine, Network, Topology, get_backend
from repro.cluster.gpu import GPUSpec
from repro.collectives import time_allreduce
from repro.compression.base import operator_class
from repro.core import CGXConfig, CommunicationEngine, LayerInfo, Package
from repro.core.engine import fuse_group, group_for_transmission
from repro.core.qnccl import QNCCL_KERNEL_OVERHEAD_FACTOR
from repro.models import ModelSpec

__all__ = ["StepTiming", "simulate_step", "simulate_machine_step",
           "single_gpu_step_time", "optimizer_time", "plan_step_packages",
           "package_ready_offsets", "plan_step", "replay_step",
           "OPTIMIZER_BYTES_PER_PARAM"]

#: bytes touched per parameter by the optimizer update (read grad, read
#: and write momentum + weights)
OPTIMIZER_BYTES_PER_PARAM = 16
#: effective HBM bandwidth for the optimizer kernel (bytes/s)
OPTIMIZER_MEM_BANDWIDTH = 800e9
#: forward share of one fwd+bwd unit (backward ~ 2x forward)
FORWARD_FRACTION = 1.0 / 3.0


@dataclass
class StepTiming:
    """Step-time breakdown for one simulated configuration."""

    n_gpus: int
    batch_per_gpu: int
    compute_time: float       # per-GPU forward+backward seconds
    step_time: float          # full step makespan
    comm_tail: float          # communication beyond the backward pass
    wire_bytes: int           # total payload bytes on the wire
    kernel_calls: int
    items_per_step: int       # global items (imgs or tokens) per step
    ideal_step_time: float    # single-GPU step time (linear-scaling basis)

    @property
    def throughput(self) -> float:
        """Global items/second."""
        return self.items_per_step / self.step_time

    @property
    def ideal_throughput(self) -> float:
        return self.items_per_step / self.ideal_step_time

    @property
    def scaling_efficiency(self) -> float:
        """Fraction of ideal linear scaling achieved."""
        return self.ideal_step_time / self.step_time


def single_gpu_step_time(spec: ModelSpec, gpu: GPUSpec,
                         batch_per_gpu: int) -> float:
    """Compute + optimizer time of one step on one GPU (no comm)."""
    compute = gpu.step_compute_time(spec, batch_per_gpu)
    return compute + optimizer_time(spec)


def optimizer_time(spec: ModelSpec) -> float:
    """Seconds of the (memory-bound) optimizer update for one step."""
    return spec.num_parameters * OPTIMIZER_BYTES_PER_PARAM / \
        OPTIMIZER_MEM_BANDWIDTH


def plan_step_packages(spec: ModelSpec, config: CGXConfig,
                       plan_mode: str = "cgx") -> list[Package]:
    """One step's transmission plan: engine packages, fused per mode."""
    engine = CommunicationEngine(config)
    layers = [
        LayerInfo(t.name, t.numel, t.shape, t.kind)
        for t in spec.backward_order()
    ]
    packages = engine.plan(layers, mode=plan_mode)
    if plan_mode == "cgx":
        packages = [fuse_group(group) for group in
                    group_for_transmission(packages, config.fusion_bytes)]
    return packages


def package_ready_offsets(spec: ModelSpec, config: CGXConfig,
                          compute_time: float,
                          packages: list[Package]) -> list[float]:
    """Seconds after step start at which each package may launch.

    With overlap, a package seals when the last of its members' gradients
    is emitted by the backward pass; without overlap (GRACE-style hooks)
    every package waits for the whole backward pass.
    """
    ready = _gradient_ready_times(spec, compute_time)
    offsets = []
    for package in packages:
        if not config.overlap:
            offsets.append(compute_time)
        else:
            offsets.append(max(ready[layer.name] for layer in package.layers))
    return offsets


def _gradient_ready_times(spec: ModelSpec, compute_time: float
                          ) -> dict[str, float]:
    """When each tensor's gradient is emitted during the backward pass.

    Backward runs output-to-input; a tensor's gradient is ready once the
    cumulative backward work of all later-positioned modules plus its
    own is done.  Work is distributed proportionally to per-module
    forward FLOPs (backward of a module costs ~2x its forward).
    """
    forward_end = compute_time * FORWARD_FRACTION
    backward_span = compute_time - forward_end
    tensors = spec.backward_order()
    total_flops = sum(max(t.flops, 1.0) for t in tensors)
    ready: dict[str, float] = {}
    elapsed = 0.0
    for tensor in tensors:
        elapsed += max(tensor.flops, 1.0) / total_flops * backward_span
        ready[tensor.name] = forward_end + elapsed
    return ready


def plan_step(spec: ModelSpec, config: CGXConfig, compute_time: float,
              plan_mode: str = "cgx") -> list[tuple[Package, float]]:
    """One step's launch plan: ``(package, ready offset)`` in seal order.

    Pure in its arguments, so the fleet scheduler (``repro.sched.fleet``)
    plans each job shape once per run and its runners hand the same
    plan to :func:`replay_step` every step; :func:`simulate_step` plans
    and replays once.
    """
    packages = plan_step_packages(spec, config, plan_mode)
    offsets = package_ready_offsets(spec, config, compute_time, packages)
    return sorted(zip(packages, offsets), key=lambda po: po[1])


def replay_step(net: Network, ranks: list[int],
                plan: list[tuple[Package, float]], config: CGXConfig,
                start: float = 0.0, rank_scale: list[float] | None = None,
                kernel_factor: float = 1.0, job: int | None = None
                ) -> tuple[float, int, int]:
    """Launch one step's packages on ``net``; the runtime's one replay.

    Each package's collective starts on rank ``r`` at
    ``start + offset * rank_scale[r]`` (``rank_scale`` defaults to all
    ones) and contends with everything already scheduled on ``net`` —
    earlier packages of this step, and on a shared fleet network other
    jobs' steps.  ``start`` is the step origin on the network clock (a
    fleet job's current time), ``job`` scopes every transfer and kernel
    to the owning job.  Each package is one :func:`time_allreduce` call
    on its ``(numel, shape)``, so a factored operator's P -> Q pair
    (PowerSGD) is priced there too.

    Returns ``(last package end, wire bytes, kernel calls)``; the end
    is ``start`` when the plan is empty.
    """
    scales = rank_scale if rank_scale is not None else [1.0] * len(ranks)
    last_end = start
    wire_total = 0
    kernel_total = 0
    for package, offset in plan:
        timing = time_allreduce(
            net, ranks, (package.numel, package.shape), package.spec,
            scheme=config.scheme,
            ready=[start + offset * scale for scale in scales],
            chunk_streams=config.chunk_streams,
            kernel_factor=kernel_factor, job=job,
        )
        last_end = max(last_end, timing.end)
        wire_total += timing.wire_bytes
        kernel_total += timing.kernel_calls
    return last_end, wire_total, kernel_total


def simulate_step(
    spec: ModelSpec,
    gpu: GPUSpec,
    topology: Topology,
    config: CGXConfig,
    plan_mode: str = "cgx",
    batch_per_gpu: int | None = None,
    ranks: list[int] | None = None,
    kernel_factor: float = 1.0,
    network: Network | None = None,
    compute_jitter: list[float] | None = None,
) -> StepTiming:
    """Simulate one training step of ``spec`` on a topology of GPUs.

    Args:
        spec: full-size model inventory.
        gpu: compute envelope of every worker.
        topology: interconnect (single machine or multi-node cluster).
        config: CGX engine configuration (scheme, backend, compression,
            filters, per-layer overrides).
        plan_mode: ``cgx`` (per-layer packages) or ``fused`` (blob mode).
        batch_per_gpu: local batch; defaults to the recipe batch scaled
            by GPU memory.
        ranks: participating GPUs (default: all in the topology).
        kernel_factor: compression-kernel slowdown (QNCCL uses
            :data:`~repro.core.qnccl.QNCCL_KERNEL_OVERHEAD_FACTOR`).
        network: reuse an existing network (tests); default builds one
            from ``config.backend``.
        compute_jitter: per-rank compute-time multipliers (e.g.
            ``[0, 0, 0.5, 0]`` makes rank 2 a 1.5x straggler).  In a
            synchronous data-parallel step every collective waits for
            the slowest contributor — the cost that motivates the hybrid
            synchronization schemes the paper lists as future work.
    """
    ranks = ranks if ranks is not None else list(range(topology.n_gpus))
    n_gpus = len(ranks)
    if batch_per_gpu is None:
        batch_per_gpu = gpu.max_batch_per_gpu(spec)
    compute_time = gpu.step_compute_time(spec, batch_per_gpu)
    items = n_gpus * batch_per_gpu * spec.items_per_sample
    ideal = single_gpu_step_time(spec, gpu, batch_per_gpu)

    if n_gpus == 1:   # no gradient exchange, so nothing to compress
        return StepTiming(1, batch_per_gpu, compute_time, ideal, 0.0, 0, 0,
                          items, ideal)
    if operator_class(config.compression.method).fp32_only:
        # an operator that cannot take fp16 gradients (PowerSGD) forces
        # fp32 training, forfeiting the AMP speedup the recipe otherwise
        # uses
        compute_time *= spec.fp32_compute_factor

    net = network or Network(topology, get_backend(config.backend))
    if compute_jitter is None:
        compute_jitter = [0.0] * n_gpus
    if len(compute_jitter) != n_gpus:
        raise ValueError("compute_jitter must give one factor per rank")
    # per-rank emission times: stragglers emit (and so launch) later
    rank_scale = [1.0 + j for j in compute_jitter]
    last_end, wire_total, kernel_total = replay_step(
        net, ranks, plan_step(spec, config, compute_time, plan_mode), config,
        rank_scale=rank_scale, kernel_factor=kernel_factor)

    compute_time *= max(rank_scale)  # the step waits for the straggler
    optimizer = optimizer_time(spec)
    if config.cross_barrier:
        # Cross-barrier scheduling (BytePS-style): the communication tail
        # of step k may hide under step k+1's forward pass, so the
        # steady-state step time is the max of the two pipelines.  Note
        # the paper's Technical Issue 3: gradient clipping needs the full
        # synchronized gradient before the update, which is why the
        # Transformer recipes cannot use this mode.
        step_time = max(compute_time + optimizer, last_end)
    else:
        step_time = max(compute_time, last_end) + optimizer
    comm_tail = max(0.0, last_end - compute_time)
    return StepTiming(n_gpus, batch_per_gpu, compute_time, step_time,
                      comm_tail, wire_total, kernel_total, items, ideal)


def simulate_machine_step(
    machine: Machine,
    spec: ModelSpec,
    config: CGXConfig,
    n_gpus: int | None = None,
    plan_mode: str = "cgx",
    batch_per_gpu: int | None = None,
) -> StepTiming:
    """Convenience wrapper: simulate a step on a catalog machine.

    A compressed fused-mode step (QNCCL) pays
    :data:`~repro.core.qnccl.QNCCL_KERNEL_OVERHEAD_FACTOR` on its kernels.
    """
    topology = machine.topology(n_gpus)
    kernel_factor = (QNCCL_KERNEL_OVERHEAD_FACTOR
                     if plan_mode == "fused"
                     and config.compression.method != "none" else 1.0)
    return simulate_step(spec, machine.gpu, topology, config,
                         plan_mode=plan_mode, batch_per_gpu=batch_per_gpu,
                         kernel_factor=kernel_factor)
