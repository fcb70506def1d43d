"""Tests for perf-model scheduling features: grouping, overlap,
cross-barrier, PowerSGD path, GRACE path."""

import pytest

from repro.cluster import get_machine
from repro.compression import CompressionSpec
from repro.core import CGXConfig, CommunicationEngine, LayerInfo
from repro.models import build_spec
from repro.training import simulate_machine_step, simulate_step
from repro.training.perf import plan_step, replay_step
from repro.core.engine import group_for_transmission as _group_for_transmission

RTX = get_machine("rtx3090-8x")


def make_packages(sizes, spec=None):
    spec = spec or CompressionSpec("qsgd", bits=4, bucket_size=128)
    engine = CommunicationEngine(CGXConfig(compression=spec,
                                           filtered_keywords=(),
                                           min_compress_numel=0))
    layers = [LayerInfo(f"l{i}", n) for i, n in enumerate(sizes)]
    return engine.plan(layers, mode="cgx")


def test_grouping_fuses_consecutive_small_packages():
    packages = make_packages([1000] * 10)
    grouped = _group_for_transmission(packages, 16_000)
    assert len(grouped) < 10
    assert [p for group in grouped for p in group] == packages


def test_grouping_leaves_large_packages_alone():
    packages = make_packages([1000, 50_000_000, 1000])
    grouped = _group_for_transmission(packages, 1 << 20)
    assert grouped == [[packages[0]], [packages[1]], [packages[2]]]


def test_grouping_respects_spec_boundaries():
    spec_a = CompressionSpec("qsgd", bits=4, bucket_size=128)
    spec_b = CompressionSpec("qsgd", bits=2, bucket_size=64)
    config = CGXConfig(compression=spec_a, filtered_keywords=(),
                       min_compress_numel=0)
    config.per_layer["l1"] = spec_b
    engine = CommunicationEngine(config)
    layers = [LayerInfo(f"l{i}", 1000) for i in range(3)]
    packages = engine.plan(layers, mode="cgx")
    grouped = _group_for_transmission(packages, 1 << 20)
    # l1 has a different spec and cannot fuse with l0/l2
    assert len(grouped) == 3


def test_grouping_never_fuses_powersgd():
    spec = CompressionSpec("powersgd", rank=4)
    packages = make_packages([1000, 1000], spec=spec)
    grouped = _group_for_transmission(packages, 1 << 20)
    assert len(grouped) == 2


def test_overlap_flag_changes_step_time():
    spec = build_spec("vit")
    on = CGXConfig.cgx_default()
    off = CGXConfig.cgx_default()
    off.overlap = False
    t_on = simulate_machine_step(RTX, spec, on)
    t_off = simulate_machine_step(RTX, spec, off)
    assert t_off.step_time > t_on.step_time


def test_cross_barrier_bounded_gain():
    spec = build_spec("resnet50")
    normal = CGXConfig.cgx_default()
    crossed = CGXConfig.cgx_default()
    crossed.cross_barrier = True
    t_normal = simulate_machine_step(RTX, spec, normal)
    t_crossed = simulate_machine_step(RTX, spec, crossed)
    assert t_crossed.step_time <= t_normal.step_time
    # steady-state can never beat max(compute, comm)
    assert t_crossed.step_time >= t_crossed.compute_time


def test_powersgd_pays_fp32_penalty_only_when_used():
    spec = build_spec("transformer_xl")
    quant = simulate_machine_step(RTX, spec, CGXConfig.cgx_default())
    ps_config = CGXConfig(backend="shm", scheme="sra",
                          compression=CompressionSpec("powersgd", rank=8))
    ps = simulate_machine_step(RTX, spec, ps_config)
    assert ps.compute_time == pytest.approx(
        quant.compute_time * spec.fp32_compute_factor, rel=1e-6)


def test_powersgd_wire_far_below_dense():
    spec = build_spec("vit")
    ps_config = CGXConfig(backend="shm", scheme="sra",
                          compression=CompressionSpec("powersgd", rank=4))
    t = simulate_machine_step(RTX, spec, ps_config)
    assert t.wire_bytes < 0.25 * spec.gradient_bytes * 8


def test_replayed_powersgd_step_is_fully_job_tagged():
    # on a shared fleet network every busy second must belong to a job:
    # the PowerSGD branch (power-iteration kernels + P/Q collectives)
    # forwards the tag like the plain allreduce branch does
    config = CGXConfig(backend="shm", scheme="sra",
                       compression=CompressionSpec("powersgd", rank=4))
    net = RTX.network(config.backend)
    plan = plan_step(build_spec("resnet50"), config, compute_time=0.1)
    assert any(pkg.spec.method == "powersgd" for pkg, _ in plan)
    _, wire, kernels = replay_step(net, list(range(4)), plan, config,
                                   start=2.0, job=3)
    assert wire > 0 and kernels > 0
    assert net.job_link_seconds(3) == {
        name: busy for name, busy in net.pool.busy_seconds().items() if busy}
    assert net.transferred_bytes(None) == 0
    assert net.transferred_bytes(3) == wire


def test_grace_no_overlap_shows_in_tail():
    from repro.baselines import grace_config

    spec = build_spec("vit")
    grace = simulate_machine_step(RTX, spec, grace_config(),
                                  plan_mode="fused")
    # everything happens after backward: tail ~= total comm time
    assert grace.comm_tail > 0
    assert grace.step_time >= grace.compute_time + grace.comm_tail * 0.99


def test_qnccl_kernel_factor_applied_via_wrapper():
    from repro.core.qnccl import QNCCL_KERNEL_OVERHEAD_FACTOR, qnccl_config

    spec = build_spec("resnet50")
    qn = simulate_machine_step(RTX, spec, qnccl_config(), plan_mode="fused")

    def step(kernel_factor):
        return simulate_step(spec, RTX.gpu, RTX.topology(), qnccl_config(),
                             plan_mode="fused", kernel_factor=kernel_factor)

    assert qn == step(QNCCL_KERNEL_OVERHEAD_FACTOR)
    # same config but without the kernel-overhead factor
    assert qn.step_time >= step(1.0).step_time
