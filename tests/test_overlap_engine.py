"""Overlapped engine mode: deterministic bucket assembly, canonical
event logs, bit-identity against sequential mode, the injected-delay
trainer campaign and the DDP completion barrier."""

import numpy as np
import pytest

from repro.cluster import Network, get_backend, get_machine
from repro.collectives import TimedBucket, time_overlapped_step
from repro.collectives.trace import capture
from repro.compression import CompressionSpec
from repro.compression.topk import ErrorFeedback, TopKCompressor
from repro.core import CGXConfig, CommunicationEngine, LayerInfo
from repro.core.ddp import CGXDistributedDataParallel
from repro.core.overlap import (
    OverlapBucket,
    OverlapDelays,
    OverlapReport,
    assemble_buckets,
    layer_ready_times,
    schedule_buckets,
)
from repro.nn.layers import Linear
from repro.nn.module import Sequential
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer

L = LayerInfo


def per_layer_config(spec=None, fusion_bytes=768):
    """Every layer its own package: the bit-identity configuration.

    With the keyword filter off and the size threshold below every
    layer, sequential mode never builds the cross-layer "filtered"
    fusion package, so both modes sum each layer's chunks in the same
    order.
    """
    return CGXConfig(
        compression=spec or CompressionSpec("topk", density=0.25,
                                            error_feedback=True),
        filtered_keywords=(),
        min_compress_numel=16,
        fusion_bytes=fusion_bytes,
    )


def grads_for(layers, world, seed):
    rng = np.random.default_rng(seed)
    return [
        {name: rng.normal(size=numel).astype(np.float32)
         for name, numel in layers}
        for _ in range(world)
    ]


LAYERS = [(f"layer{i}", 96) for i in range(6)] + [("tail", 24)]
NAMES = [name for name, _ in LAYERS]


# -- bucket assembly ----------------------------------------------------------

def bucket_shape(buckets):
    return [(b.name, tuple(b.layer_names), b.first_needed, b.min_index,
             b.dense_bytes, b.wire_bytes) for b in buckets]


def example_packages(config):
    engine = CommunicationEngine(config)
    layers = [L(name, numel, (numel,)) for name, numel in reversed(LAYERS)]
    # per-layer packages in emission (reverse forward) order
    return [engine.plan([layer], mode="cgx")[0] for layer in layers]


def test_assemble_buckets_deterministic():
    config = per_layer_config()
    forward_pos = {name: i for i, name in enumerate(NAMES)}
    runs = [
        bucket_shape(assemble_buckets(example_packages(config), forward_pos,
                                      config.fusion_bytes))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_assemble_buckets_partitions_layers():
    config = per_layer_config()
    forward_pos = {name: i for i, name in enumerate(NAMES)}
    buckets = assemble_buckets(example_packages(config), forward_pos,
                               config.fusion_bytes)
    covered = [name for b in buckets for name in b.layer_names]
    assert sorted(covered) == sorted(NAMES)
    # a fused bucket never crosses a spec boundary
    for bucket in buckets:
        specs = {pkg.spec for pkg in bucket.packages}
        assert len(specs) == 1
    # first_needed is the smallest member forward position
    for bucket in buckets:
        assert bucket.first_needed == min(forward_pos[name]
                                          for name in bucket.layer_names)


def one_layer_bucket(name, layer, first_needed, min_index):
    from repro.core.engine import Package

    pkg = Package(layer, (L(layer, 4, (4,)),), CompressionSpec("none"))
    return OverlapBucket(name=name, packages=[pkg],
                         first_needed=first_needed, min_index=min_index,
                         dense_bytes=16, wire_bytes=16)


def test_schedule_buckets_first_needed_first_sent():
    b0 = one_layer_bucket("b0", "x", 5, 0)
    b1 = one_layer_bucket("b1", "y", 1, 1)
    b2 = one_layer_bucket("b2", "z", 3, 2)
    # all three sealed at t=0: strict (first_needed, min_index) order
    order = schedule_buckets([b0, b1, b2],
                             {"x": 0.0, "y": 0.0, "z": 0.0},
                             lambda b: 1.0)
    assert [b.name for b in order] == ["b1", "b2", "b0"]
    # single channel: launches never overlap a transfer in flight
    for prev, nxt in zip(order, order[1:]):
        assert nxt.launch_t >= prev.landed_t
    # late seal: b1 seals only after b0's transfer started
    b0b = one_layer_bucket("b0", "x", 5, 0)
    b1b = one_layer_bucket("b1", "y", 1, 1)
    order = schedule_buckets([b0b, b1b], {"x": 0.0, "y": 0.5},
                             lambda b: 1.0)
    assert [b.name for b in order] == ["b0", "b1"]
    assert b1b.launch_t == pytest.approx(b0b.landed_t)


def test_layer_ready_times_cumulative():
    delays = OverlapDelays.uniform(["a", "b", "c"], compute=0.25)
    ready = layer_ready_times(["c", "b", "a"], delays)
    assert ready == {"c": pytest.approx(0.25), "b": pytest.approx(0.5),
                     "a": pytest.approx(0.75)}


# -- canonical event logs -----------------------------------------------------

def overlapped_run(seed):
    config = per_layer_config(
        CompressionSpec("qsgd", bits=4, bucket_size=32, error_feedback=True))
    engine = CommunicationEngine(config)
    rng = np.random.default_rng(seed)
    delays = OverlapDelays.uniform(NAMES, compute=1e-3, comm_latency=2e-3,
                                   comm_per_byte=0.0)
    with capture() as trace:
        for step in range(3):
            per_worker = grads_for(LAYERS, 3, 100 + step)
            _, report = engine.reduce_overlapped(
                per_worker, rng, ready_order=list(reversed(NAMES)),
                step=step, delays=delays)
    log = [(e.kind, e.step, round(e.t, 12), e.layer, e.bucket,
            e.first_needed) for e in trace.overlap_events]
    return log, report


def test_same_seed_event_logs_byte_identical():
    log_a, _ = overlapped_run(11)
    log_b, _ = overlapped_run(11)
    assert repr(log_a).encode() == repr(log_b).encode()


def test_event_log_interleaves_compute_and_comm():
    log, report = overlapped_run(11)
    kinds = {kind for kind, *_ in log}
    assert kinds == {"grad_ready", "reduce_enqueued", "reduce_landed"}
    # at least one bucket lands before the last gradient is emitted —
    # the overlap the mode exists to buy
    last_ready = max(t for kind, _, t, *_ in log if kind == "grad_ready")
    first_landed = min(t for kind, _, t, *_ in log
                       if kind == "reduce_landed")
    assert first_landed < last_ready
    assert isinstance(report, OverlapReport)
    assert report.overlapped_time < report.sequential_time


# -- bit-identity against sequential mode -------------------------------------

@pytest.mark.parametrize("spec", [
    CompressionSpec("topk", density=0.25, error_feedback=True),
    CompressionSpec("none"),
])
def test_overlapped_bit_identical_to_sequential(spec):
    """Same grads, same state: overlapped == sequential, bit for bit.

    Buckets are transmission groups only — each inner package keeps its
    own compressor and chunk partition — so deterministic compressors
    see the exact same arithmetic in both modes.
    """
    config_a = per_layer_config(spec)
    config_b = per_layer_config(spec)
    seq = CommunicationEngine(config_a)
    ovl = CommunicationEngine(config_b)
    for step in range(3):
        per_worker = grads_for(LAYERS, 3, 40 + step)
        reduced_seq, _ = seq.reduce(
            [dict(g) for g in per_worker], np.random.default_rng(step))
        reduced_ovl, _ = ovl.reduce_overlapped(
            [dict(g) for g in per_worker], np.random.default_rng(step),
            ready_order=list(reversed(NAMES)), step=step)
        for worker in range(3):
            for name in NAMES:
                np.testing.assert_array_equal(
                    reduced_seq[worker][name], reduced_ovl[worker][name],
                    err_msg=f"step {step}, worker {worker}, {name}")


def test_error_feedback_residual_survives_quorum_demotion():
    """Regression: a quorum change repartitions chunks; the stale
    residual (stored at the old chunk shape) must reset, not crash."""
    config = per_layer_config(
        CompressionSpec("topk", density=0.25, error_feedback=True))
    engine = CommunicationEngine(config)
    rng = np.random.default_rng(0)
    per_worker = grads_for(LAYERS, 3, 7)
    engine.reduce([dict(g) for g in per_worker], rng)
    # world 3 -> quorum 2: sra chunks go 96/3=32 to 96/2=48 elements
    reduced, _ = engine.reduce([dict(g) for g in per_worker], rng,
                               participants=[0, 1], average_over=2)
    assert all(np.isfinite(reduced[0][name]).all() for name in NAMES)
    # and the same path through overlapped mode
    reduced, _ = engine.reduce_overlapped(
        [dict(g) for g in per_worker], rng,
        ready_order=list(reversed(NAMES)), step=2)
    assert all(np.isfinite(reduced[0][name]).all() for name in NAMES)


def test_error_feedback_discards_misaligned_residual():
    ef = ErrorFeedback(TopKCompressor(
        CompressionSpec("topk", density=0.5, error_feedback=True)))
    rng = np.random.default_rng(0)
    ef.compress(np.ones(32, dtype=np.float32), rng, key="k")
    # same key, new chunk shape: must not broadcast-crash
    out = ef.compress(np.ones(48, dtype=np.float32), rng, key="k")
    assert np.isfinite(ef.compressor.decompress(out)).all()
    # and the residual was rebuilt at the new shape
    assert ef._residuals["k"].shape == (48,)


# -- module grad-ready hooks --------------------------------------------------

def test_grad_ready_hooks_report_backward_order():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(8, 8, rng=rng), Linear(8, 8, rng=rng),
                       Linear(8, 4, rng=rng))
    emitted = []
    model.register_grad_ready_hook(emitted.append)
    out = model(np.ones((2, 8), dtype=np.float32))
    model.backward(np.ones_like(out))
    # stages report deepest-first, each with its dotted parameter names
    assert [sorted(batch) for batch in emitted] == [
        ["2.bias", "2.weight"], ["1.bias", "1.weight"],
        ["0.bias", "0.weight"]]
    model.clear_grad_ready_hooks()
    emitted.clear()
    model.backward(np.ones_like(out))
    assert emitted == []


# -- the DDP completion barrier -----------------------------------------------

def mlp_ddp(world=2, overlap_config=None):
    task = make_task("mlp", batch_size=8)
    replicas = [task.build_model(0) for _ in range(world)]
    return task, CGXDistributedDataParallel(
        replicas, config=overlap_config or per_layer_config(), seed=0)


def run_backward(task, ddp, seed=0):
    rng = np.random.default_rng(seed)
    batch = task.sample_batch(rng)
    for replica in ddp.replicas:
        replica.zero_grad()
        logits = replica(batch[0])
        _, grad = task.loss_and_grad(logits, batch)
        replica.backward(grad)


def test_mark_consumed_before_sync_raises():
    task, ddp = mlp_ddp()
    run_backward(task, ddp)
    with pytest.raises(RuntimeError, match="before .* reduction landed"):
        ddp.mark_consumed(step=1)


def test_mark_consumed_wrong_step_raises():
    task, ddp = mlp_ddp()
    run_backward(task, ddp)
    ddp.synchronize_overlapped(step=1)
    with pytest.raises(RuntimeError, match="landed step 1"):
        ddp.mark_consumed(step=2)
    ddp.mark_consumed(step=1)  # the matching step passes


def test_synchronize_overlapped_requires_cgx_mode():
    task = make_task("mlp", batch_size=8)
    replicas = [task.build_model(0) for _ in range(2)]
    ddp = CGXDistributedDataParallel(replicas, config=per_layer_config(),
                                     mode="fused", seed=0)
    run_backward(task, ddp)
    with pytest.raises(ValueError, match="requires cgx planning"):
        ddp.synchronize_overlapped(step=1)


# -- the injected-delay trainer campaign --------------------------------------

def test_trainer_overlap_hides_injected_delays_and_matches_sequential(
        monkeypatch):
    """FSDP-style check: under balanced injected delays the overlapped
    step beats the synchronize-at-the-end baseline by >= 1.25x, while
    the trained weights stay bit-identical to sequential mode.  The
    delays are injected at the engine, as pytorch's
    test_fully_shard_overlap patches the collective."""
    steps = 3

    def train(overlap):
        task = make_task("mlp", batch_size=8)
        config = per_layer_config(fusion_bytes=2048)
        names = [name for name, _ in task.build_model(0).named_parameters()]
        delays = OverlapDelays.uniform(names, compute=1e-3,
                                       comm_latency=2e-3, comm_per_byte=0.0)
        monkeypatch.setattr("repro.core.overlap.OverlapDelays.default_for",
                            staticmethod(lambda numels: delays))
        trainer = DataParallelTrainer(task, world_size=3, config=config,
                                      seed=0, overlap=overlap)
        reports = []
        for _ in range(steps):
            trainer.train_step()
            reports.append(trainer.ddp.last_report)
        weights = {name: param.data.copy()
                   for name, param in trainer.replicas[0].named_parameters()}
        return weights, reports

    seq_weights, _ = train(overlap=False)
    ovl_weights, reports = train(overlap=True)
    for name, value in seq_weights.items():
        np.testing.assert_array_equal(value, ovl_weights[name],
                                      err_msg=name)
    for report in reports:
        assert isinstance(report, OverlapReport)
        assert len(report.buckets) >= 2
        assert report.overlapped_time <= 0.8 * report.sequential_time
        assert report.overlap_ratio > 1.25


# -- the Network-grounded timed path ------------------------------------------

def timed_network():
    machine = get_machine("rtx3090-8x")
    return Network(machine.topology(), get_backend("nccl"))


def test_time_overlapped_step_beats_sequential():
    spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    buckets = [
        TimedBucket(name=f"b{i}", numel=1 << 20, spec=spec,
                    ready=1e-3 * (i + 1), first_needed=3 - i, min_index=i)
        for i in range(4)
    ]
    timing = time_overlapped_step(timed_network(), list(range(8)), buckets,
                                  scheme="sra", compute_end=4e-3)
    assert timing.overlapped_end <= timing.sequential_end + 1e-12
    assert timing.overlap_ratio >= 1.0
    assert len(timing.intervals) == 4
    # single channel: intervals are disjoint in launch order
    ordered = sorted(timing.intervals, key=lambda iv: iv[1])
    for (_, _, end), (_, launch, _) in zip(ordered, ordered[1:]):
        assert launch >= end - 1e-12


def test_time_overlapped_step_empty():
    timing = time_overlapped_step(timed_network(), list(range(8)), [],
                                  scheme="sra", compute_end=5e-3)
    assert timing.overlapped_end == pytest.approx(5e-3)
    assert timing.sequential_end == pytest.approx(5e-3)
    assert timing.intervals == []
