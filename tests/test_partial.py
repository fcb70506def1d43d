"""Tests for partial (quorum) allreduce — the hybrid-sync extension."""

import numpy as np
import pytest

from repro.cluster import get_machine
from repro.collectives import PartialAllreduce, time_partial_allreduce
from repro.compression import CompressionSpec, make_compressor


def dense():
    return make_compressor(CompressionSpec("none"))


def make_buffers(world, numel=50, seed=0):
    return [np.random.default_rng(seed + i).normal(size=numel)
            .astype(np.float32) for i in range(world)]


def test_full_quorum_equals_allreduce():
    world = 4
    pa = PartialAllreduce(world)
    bufs = make_buffers(world)
    outs, _ = pa.reduce(bufs, list(range(world)), dense(),
                        np.random.default_rng(0))
    exact = np.sum(bufs, axis=0)
    np.testing.assert_allclose(outs[0], exact, rtol=1e-4, atol=1e-5)


def test_partial_result_sums_quorum_only():
    """A quorum step sums the participants' gradients; the skipped
    ranks' mass arrives later via the carry (no rescaling — rescaling
    would double-count the carried mass when it finally lands)."""
    world = 4
    pa = PartialAllreduce(world)
    bufs = [np.ones(10, dtype=np.float32) for _ in range(world)]
    outs, _ = pa.reduce(bufs, [0, 1], dense(), np.random.default_rng(0))
    np.testing.assert_allclose(outs[0], 2.0 * np.ones(10), rtol=1e-5)


def test_all_ranks_receive_identical_results():
    world = 5
    pa = PartialAllreduce(world)
    bufs = make_buffers(world)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=16))
    outs, _ = pa.reduce(bufs, [0, 2, 4], comp, np.random.default_rng(1))
    for out in outs[1:]:
        np.testing.assert_array_equal(outs[0], out)


def test_carry_accumulates_and_drains():
    world = 3
    pa = PartialAllreduce(world)
    bufs = make_buffers(world)
    pa.reduce(bufs, [0, 1], dense(), np.random.default_rng(0), key="k")
    assert pa.carry_norm("k", 2) > 0
    assert pa.carry_norm("k", 0) == 0.0
    # skipped again: carry grows
    first = pa.carry_norm("k", 2)
    pa.reduce(bufs, [0, 1], dense(), np.random.default_rng(1), key="k")
    assert pa.carry_norm("k", 2) > first
    # finally participates: carry drains into the sum
    outs, _ = pa.reduce(bufs, [0, 1, 2], dense(),
                        np.random.default_rng(2), key="k")
    assert pa.carry_norm("k", 2) == 0.0
    expected = np.sum(bufs, axis=0) + 2 * bufs[2]
    np.testing.assert_allclose(outs[0], expected, rtol=1e-4, atol=1e-4)


def test_no_mass_lost_over_rotating_quorums():
    """Conservation: over a cycle where every rank eventually
    participates, total transmitted mass equals total generated mass."""
    world = 3
    pa = PartialAllreduce(world)
    grad = [np.full(4, float(i + 1), dtype=np.float32) for i in range(world)]
    total = np.zeros(4, dtype=np.float64)
    schedule = [[0, 1], [1, 2], [0, 2], [0, 1, 2]]
    for step, participants in enumerate(schedule):
        outs, _ = pa.reduce(grad, participants, dense(),
                            np.random.default_rng(step), key="c")
        total += outs[0] / world  # the averaged update
    # generated mass per element: 4 steps * mean(1,2,3) = 8; carries all
    # drained on the final full step
    np.testing.assert_allclose(total, np.full(4, 8.0), rtol=1e-4)


def test_validation():
    pa = PartialAllreduce(2)
    bufs = make_buffers(2)
    with pytest.raises(ValueError):
        pa.reduce(bufs, [], dense(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        pa.reduce(bufs, [5], dense(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        pa.reduce(make_buffers(3), [0], dense(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        PartialAllreduce(0)


# -- timing ----------------------------------------------------------------------

def test_timed_partial_does_not_wait_for_straggler():
    net = get_machine("rtx3090-8x").network("shm")
    ready = [0.001] * 7 + [0.5]
    timing = time_partial_allreduce(
        net, list(range(8)), 1 << 22,
        CompressionSpec("qsgd", bits=4, bucket_size=128),
        quorum=7, ready=ready,
    )
    fast_end = max(timing.end_times[i] for i in range(7))
    assert fast_end < 0.1            # fast ranks unaffected by rank 7
    assert timing.end_times[7] >= 0.5  # straggler bounded by itself


def test_timed_full_quorum_waits():
    net = get_machine("rtx3090-8x").network("shm")
    ready = [0.001] * 7 + [0.5]
    timing = time_partial_allreduce(
        net, list(range(8)), 1 << 22,
        CompressionSpec("qsgd", bits=4, bucket_size=128),
        quorum=8, ready=ready,
    )
    assert min(timing.end_times) > 0.5  # everyone waits for the straggler


def test_timed_partial_validation():
    net = get_machine("rtx3090-8x").network("shm")
    with pytest.raises(ValueError):
        time_partial_allreduce(net, [0, 1], 100, CompressionSpec("none"),
                               quorum=3, ready=[0.0, 0.0])
    with pytest.raises(ValueError):
        time_partial_allreduce(net, [0, 1], 100, CompressionSpec("none"),
                               quorum=1, ready=[0.0])


def test_partial_training_with_rotating_stragglers():
    """End-to-end: training where one worker is skipped each step still
    converges and replicas stay identical (elastic consistency)."""
    from repro.nn import SGD, build_model
    from repro.nn.data import SyntheticVectors
    from repro.nn.loss import softmax_cross_entropy

    world = 3
    replicas = [build_model("mlp", seed=11) for _ in range(world)]
    opts = [SGD(r.parameters(), lr=0.05, momentum=0.9) for r in replicas]
    pa = PartialAllreduce(world)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=128))
    data = SyntheticVectors(seed=0)
    rng = np.random.default_rng(2)
    for step in range(60):
        per_worker = []
        for replica in replicas:
            replica.zero_grad()
            x, y = data.sample(32, rng)
            _, grad = softmax_cross_entropy(replica(x), y)
            replica.backward(grad)
            per_worker.append([p.grad for p in replica.parameters()])
        skipped = step % world
        participants = [r for r in range(world) if r != skipped]
        for p_idx in range(len(per_worker[0])):
            bufs = [per_worker[w][p_idx] for w in range(world)]
            outs, _ = pa.reduce(bufs, participants, comp,
                                np.random.default_rng(step * 100 + p_idx),
                                key=f"p{p_idx}")
            for w, replica in enumerate(replicas):
                replica.parameters()[p_idx].grad = outs[w] / world
        for opt in opts:
            opt.step()
    for (pa_, pb) in zip(replicas[0].parameters(), replicas[1].parameters()):
        np.testing.assert_array_equal(pa_.data, pb.data)
    xe, ye = data.eval_set(256)
    accuracy = float((replicas[0](xe).argmax(-1) == ye).mean())
    assert accuracy > 0.9
