"""Unit tests for the repro.faults subsystem: plans, policies, the
data-path channel, the timed FaultyNetwork, engine/trainer integration,
and the satellite fixes that rode along with it."""

import numpy as np
import pytest

from repro.cluster import Network, nvlink_mesh
from repro.collectives import SchemeCell, allreduce, run_cell, scheme_cell
from repro.collectives.partial import PartialAllreduce
from repro.compression import CompressionSpec, make_compressor
from repro.core import CGXConfig, CommunicationEngine
from repro.faults import (
    CAMPAIGNS,
    FaultBudgetExceeded,
    FaultEvent,
    FaultPlan,
    FaultyNetwork,
    HeartbeatTransport,
    LinkDownError,
    PlanRuntime,
    ResiliencePolicy,
    corrupt_payload,
    crash,
    inject_data_path,
    link_outage,
    link_slowdown,
    make_campaign,
    message_loss,
    payload_corruption,
    payload_crc,
    plan_fallback,
    select_members,
    straggler,
)
from repro.faults.health import COMPUTE_COST, HEARTBEAT_BYTES, INTERVAL
from repro.faults.plan import FIXED_WORLD_CAMPAIGNS
from repro.faults.policy import backoff
from repro.training import train_family
from repro.training.recipes import get_recipe
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer


def make_buffers(world, numel=257, seed=0):
    return [np.random.default_rng(seed + i).normal(size=numel)
            .astype(np.float32) for i in range(world)]


def lossy_plan(world=4, seed=0, p_loss=0.3, p_corrupt=0.0):
    events = []
    if p_loss:
        events.append(message_loss(0, None, probability=p_loss))
    if p_corrupt:
        events.append(payload_corruption(0, None, probability=p_corrupt))
    return FaultPlan("test-lossy", world, seed, tuple(events))


# -- plans -------------------------------------------------------------------

def test_event_windows():
    event = straggler(2, 5, rank=0, factor=1.5)
    assert not event.active(1)
    assert event.active(2) and event.active(4)
    assert not event.active(5)
    persistent = straggler(3, None, rank=0, factor=1.5)
    assert persistent.active(10_000)


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent("melted", 0)
    with pytest.raises(ValueError):
        straggler(5, 2, rank=0, factor=1.5)       # stop <= start
    with pytest.raises(ValueError):
        straggler(0, None, rank=0, factor=0.5)    # speedup is not a fault
    with pytest.raises(ValueError):
        message_loss(0, None, probability=1.0)    # certain loss never ends
    with pytest.raises(ValueError):
        FaultEvent("crash", 0)                    # rank required


def test_plan_rejects_out_of_range_ranks():
    with pytest.raises(ValueError):
        FaultPlan("bad", 4, 0, (straggler(0, None, rank=7, factor=2.0),))


def test_plan_round_trips_through_dict():
    plan = make_campaign("crash-rejoin", world=4, seed=3)
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone == plan


def test_step_faults_queries():
    plan = FaultPlan("q", 4, 0, (
        straggler(0, None, rank=1, factor=1.5),
        straggler(0, None, rank=1, factor=2.0),
        message_loss(0, None, probability=0.5, src=0, dst=1),
        message_loss(0, None, probability=0.5, src=0, dst=1),
        link_outage(0, None, src=2, dst=3),
    ))
    faults = plan.at_step(0)
    assert faults.compute_scale(1) == 3.0          # factors multiply
    assert faults.compute_scale(0) == 1.0
    assert faults.loss_probability(0, 1) == 0.75   # independent hazards
    assert faults.loss_probability(1, 0) == 0.0    # message faults directed
    assert faults.route_down(2, 3) and faults.route_down(3, 2)  # links aren't
    assert not faults.route_down(0, 3)


def test_campaigns_registry():
    assert set(CAMPAIGNS) == {"straggler", "lossy-link", "crash-rejoin",
                              "spot-churn", "autoscale-burst"}
    with pytest.raises(KeyError):
        make_campaign("volcano")
    for name in CAMPAIGNS:
        plan = make_campaign(name, world=4, seed=1)
        assert plan.world == 4 and plan.seed == 1


def test_runtime_logs_crash_and_rejoin_edges():
    plan = FaultPlan("edges", 4, 0, (crash(rank=3, at=2, rejoin=4),))
    runtime = PlanRuntime(plan)
    for step in range(1, 6):
        runtime.advance(step)
    kinds = [r.kind for r in runtime.records]
    assert kinds == ["crash", "rejoin"]
    assert runtime.counters.crashes == 1
    assert runtime.counters.rejoins == 1
    assert runtime.counters.crashed_steps == 2    # steps 2 and 3


# -- policy ------------------------------------------------------------------

def test_backoff_is_exponential():
    assert backoff(1) == 1e-3
    assert backoff(2) == 2e-3
    assert backoff(3) == 4e-3


def test_select_participants_excludes_dead_and_demotes_stragglers():
    plan = FaultPlan("sel", 4, 0, (
        crash(rank=2, at=0),
        straggler(0, None, rank=3, factor=3.0),
    ))
    kept = select_members(plan.at_step(0), range(4))
    assert kept == [0, 1]


def test_select_participants_respects_quorum_floor():
    # every live rank is over budget; the floor re-admits the least slow
    plan = FaultPlan("floor", 4, 0, tuple(
        straggler(0, None, rank=r, factor=2.5 + r) for r in range(4)))
    kept = select_members(plan.at_step(0), range(4))
    assert kept == [0, 1]   # ceil(0.5 * 4) = 2, slowest dropped first


def test_plan_fallback_ok_without_outages():
    plan = lossy_plan()
    assert plan_fallback(plan.at_step(0), [0, 1, 2, 3]) == ("ok", [0, 1, 2, 3])


def test_plan_fallback_reroutes_around_single_downed_pair():
    plan = FaultPlan("pair", 4, 0, (link_outage(0, None, src=0, dst=3),))
    decision, order = plan_fallback(plan.at_step(0), [0, 1, 2, 3])
    assert decision == "reroute"
    assert sorted(order) == [0, 1, 2, 3]
    faults = plan.at_step(0)
    for a, b in zip(order, order[1:] + order[:1]):
        assert not faults.route_down(a, b)


def test_plan_fallback_quorum_when_rank_isolated():
    plan = FaultPlan("isolate", 4, 0, (link_outage(0, None, src=2),))
    decision, members = plan_fallback(plan.at_step(0), [0, 1, 2, 3])
    assert (decision, members) == ("quorum", [0, 1, 3])


# -- data-path channel -------------------------------------------------------

def test_corrupt_payload_flips_exactly_one_byte():
    comp = make_compressor(CompressionSpec("qsgd", bits=4))
    wire = comp.compress(np.ones(64, dtype=np.float32),
                         np.random.default_rng(0))
    crc = payload_crc(wire)
    bad = corrupt_payload(wire, np.random.default_rng(1))
    assert payload_crc(bad) != crc
    assert payload_crc(wire) == crc               # original untouched


@pytest.mark.parametrize("method", ["topk", "dgc"])
def test_every_sparsifier_corruption_is_a_wire_corruption(method):
    # at PR 17's parent indices were int64 in memory, int32 on the wire:
    # of 400 draws 96 left the CRC unchanged and 189 raised IndexError
    comp = make_compressor(CompressionSpec(method, density=0.25))
    x = np.random.default_rng(0).standard_normal(97).astype(np.float32)
    wire = comp.compress(x, np.random.default_rng(0), key="k")
    assert wire.payload["indices"].dtype == np.int32
    crc = payload_crc(wire)
    clean = comp.decompress(wire)
    rng = np.random.default_rng(7)
    for _ in range(400):
        bad = corrupt_payload(wire, rng)
        assert payload_crc(bad) != crc
        out = comp.decompress(bad)        # garbage in, no exception out
        assert out.shape == clean.shape and out.dtype == np.float32


def test_sparsifier_decode_drops_out_of_range_indices():
    comp = make_compressor(CompressionSpec("topk", density=0.5))
    wire = comp.compress(np.arange(1, 9, dtype=np.float32),
                         np.random.default_rng(0))
    wire.payload["indices"][:] = [-1, 3, 8, 2**31 - 1]
    out = comp.decompress(wire)
    kept = wire.payload["values"][1]
    np.testing.assert_array_equal(out, [0, 0, 0, kept, 0, 0, 0, 0])


# undetected garbage may blow the loss up (measured, not modeled): the
# claim is only that nothing raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(5))
def test_topk_trains_through_undetected_corruption(seed):
    config = CGXConfig(compression=CompressionSpec(
        "topk", density=0.25, error_feedback=True))
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    trainer = DataParallelTrainer(
        task, world_size=4, config=config, recipe=recipe, seed=seed,
        fault_plan=make_campaign("lossy-link", world=4, seed=seed),
        policy=ResiliencePolicy(crc_check=False))
    result = trainer.train(steps=20)
    assert result.steps == 20
    assert result.fault_summary["corrupt_delivered"] > 0


@pytest.mark.parametrize("scheme", ["sra", "ring", "tree", "allgather", "ps"])
def test_lossy_channel_still_reduces_exactly(scheme):
    world = 4
    bufs = make_buffers(world)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.3, p_corrupt=0.1))
    with inject_data_path(runtime):
        outs, stats = allreduce(scheme, bufs,
                                make_compressor(CompressionSpec()),
                                np.random.default_rng(0))
    for out in outs:
        np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)
    assert runtime.counters.lost > 0
    assert runtime.counters.retries > 0
    assert runtime.counters.corrupt_delivered == 0
    assert stats.retries == runtime.counters.retries
    assert stats.retransmit_bytes == runtime.counters.retransmit_bytes


@pytest.mark.parametrize("cell", [
    SchemeCell("hier", 4, node_of=(0, 0, 1, 1)), scheme_cell("partial", 4)],
    ids=["hier", "partial"])
def test_nested_collectives_roll_up_their_retry_counters(cell):
    """hier summed its sub-collectives' wire bytes (retransmissions
    included) but dropped their retries: 11 booked of 77 performed."""
    runtime = PlanRuntime(make_campaign("lossy-link", world=4, seed=0))
    runtime.advance(5)
    comp = make_compressor(CompressionSpec("qsgd", bits=4))
    rng = np.random.default_rng(0)
    retries = retransmit_bytes = 0
    with inject_data_path(runtime):
        for step in range(20):
            _, stats = run_cell(cell, make_buffers(4, numel=4000, seed=step),
                                comp, rng)
            retries += stats.retries
            retransmit_bytes += stats.retransmit_bytes
    assert runtime.counters.retries > 0
    assert retries == runtime.counters.retries
    assert retransmit_bytes == runtime.counters.retransmit_bytes


def test_retransmits_add_wire_bytes():
    world = 4
    bufs = make_buffers(world)
    comp = make_compressor(CompressionSpec())

    clean_outs, clean = allreduce("sra", bufs, comp,
                                  np.random.default_rng(0))
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.4))
    with inject_data_path(runtime):
        outs, faulty = allreduce("sra", bufs, comp,
                                 np.random.default_rng(0))
    assert faulty.retransmit_bytes > 0
    assert faulty.wire_bytes == clean.wire_bytes + faulty.retransmit_bytes
    for a, b in zip(outs, clean_outs):
        np.testing.assert_array_equal(a, b)


def test_corruption_without_crc_is_delivered():
    world = 4
    bufs = make_buffers(world)
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.0, p_corrupt=0.5),
                          ResiliencePolicy(crc_check=False))
    with inject_data_path(runtime):
        outs, _ = allreduce("sra", bufs,
                            make_compressor(CompressionSpec("qsgd", bits=4)),
                            np.random.default_rng(0))
    assert runtime.counters.corrupt_delivered > 0
    assert runtime.counters.corrupt_detected == 0
    # replicas still agree: broadcasts decode one canonical wire copy
    for out in outs[1:]:
        np.testing.assert_array_equal(out, outs[0])


def test_corruption_drawn_on_an_empty_chunk_arrives_intact():
    # numel < world leaves empty chunks; a corruption drawn on one has no
    # byte to flip: it is logged, but neither "detected" nor retried
    world = 4
    bufs = [np.arange(2, dtype=np.float32) + r for r in range(world)]
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.0, p_corrupt=0.5))
    with inject_data_path(runtime):
        allreduce("sra", bufs, make_compressor(CompressionSpec("qsgd", bits=4)),
                  np.random.default_rng(0))
    counters = runtime.counters
    drawn = len(list(runtime.records_of("payload_corrupt")))
    assert 0 < counters.corrupt_detected < drawn
    assert counters.retries == counters.corrupt_detected
    assert counters.corrupt_delivered == 0


def test_strict_policy_raises_when_budget_exhausted():
    world = 4
    bufs = make_buffers(world)
    # five failed draws in a row (0.95 ** 5 = 0.77) exhaust the four
    # retries at least once over the reduction's messages
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.95),
                          ResiliencePolicy(strict=True))
    with inject_data_path(runtime), pytest.raises(FaultBudgetExceeded):
        allreduce("sra", bufs, make_compressor(CompressionSpec()),
                  np.random.default_rng(0))


def test_nonstrict_budget_forces_delivery_through():
    world = 4
    bufs = make_buffers(world)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    runtime = PlanRuntime(lossy_plan(world, p_loss=0.95),
                          ResiliencePolicy(strict=False))
    with inject_data_path(runtime):
        outs, _ = allreduce("sra", bufs, make_compressor(CompressionSpec()),
                            np.random.default_rng(0))
    assert runtime.counters.forced_deliveries > 0
    for out in outs:
        np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)


def test_channel_determinism_byte_identical_logs():
    logs = []
    for _ in range(2):
        runtime = PlanRuntime(lossy_plan(4, seed=7, p_loss=0.3,
                                         p_corrupt=0.1))
        bufs = make_buffers(4)
        with inject_data_path(runtime):
            for step in range(3):
                runtime.advance(step)
                allreduce("sra", bufs, make_compressor(CompressionSpec()),
                          np.random.default_rng(0))
        logs.append(runtime.log_bytes())
    assert logs[0] == logs[1]


# -- timed network -----------------------------------------------------------

def test_faulty_network_slowdown_stretches_transfers():
    topo = nvlink_mesh(4)
    plan = FaultPlan("slow", 4, 0,
                     (link_slowdown(0, None, factor=3.0, src=0, dst=1),))
    healthy = Network(topo)
    slow = FaultyNetwork(topo, "shm", PlanRuntime(plan))
    nbytes = 1 << 20
    assert slow.transfer(0, 1, nbytes, 0.0) > healthy.transfer(0, 1, nbytes,
                                                               0.0)
    # unaffected routes keep healthy timing
    assert slow.transfer(2, 3, nbytes, 0.0) \
        == healthy.transfer(2, 3, nbytes, 0.0)


def test_faulty_network_raises_on_downed_route():
    plan = FaultPlan("down", 4, 0, (link_outage(0, None, src=0, dst=1),))
    net = FaultyNetwork(nvlink_mesh(4), "shm", PlanRuntime(plan))
    with pytest.raises(LinkDownError):
        net.transfer(0, 1, 1 << 20, 0.0)
    assert net.transfer(0, 2, 1 << 20, 0.0) > 0.0


def test_faulty_network_lossy_route_retries_with_backoff():
    plan = FaultPlan("retry", 4, 3,
                     (message_loss(0, None, probability=0.9, src=0, dst=1),))
    runtime = PlanRuntime(plan)
    net = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
    healthy_end = Network(nvlink_mesh(4)).transfer(0, 1, 1 << 20, 0.0)
    end = net.transfer(0, 1, 1 << 20, 0.0)
    assert end > healthy_end
    assert runtime.counters.retries > 0


def test_faulty_network_shares_the_plain_link_walk():
    # fault-free plan: same arrival AND the same per-job accounting as a
    # plain Network (the forked walk used to skip the byte ledger)
    runtime = PlanRuntime(FaultPlan("fault-free", 4, 0))
    plain = Network(nvlink_mesh(4))
    faulty = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
    for src, dst, nbytes in ((0, 1, 1 << 20), (0, 2, 4096), (3, 1, 777)):
        assert faulty.transfer(src, dst, nbytes, 0.0, job=3) \
            == plain.transfer(src, dst, nbytes, 0.0, job=3)
    assert faulty.transferred_bytes(3) == plain.transferred_bytes(3) \
        == (1 << 20) + 4096 + 777
    assert faulty.total_transferred_bytes() \
        == plain.total_transferred_bytes()
    assert faulty.job_link_seconds(3) == plain.job_link_seconds(3)
    assert runtime.records == []


def test_faulty_network_retry_counts_bytes_per_traversal():
    plan = FaultPlan("retry", 4, 3,
                     (message_loss(0, None, probability=0.9, src=0, dst=1),))
    runtime = PlanRuntime(plan)
    net = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
    net.enable_trace()
    nbytes = 1 << 20
    net.transfer(0, 1, nbytes, 0.0, job=7)
    traversals = runtime.counters.retries + 1
    assert traversals > 1
    assert len(net.trace) == traversals
    assert net.transferred_bytes(7) == nbytes * traversals
    assert runtime.counters.retransmit_bytes == nbytes * (traversals - 1)


def test_faulty_network_strict_raises_when_budget_exhausted():
    # the data path's FaultChannel raises under strict; the timed path
    # used to force every exhausted transfer through
    plan = FaultPlan("strict", 4, 0,
                     (message_loss(0, None, probability=0.95, src=0, dst=1),))
    runtime = PlanRuntime(plan, ResiliencePolicy(strict=True))
    net = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
    with pytest.raises(FaultBudgetExceeded):
        for _ in range(20):
            net.transfer(0, 1, 4096, 0.0)
    assert runtime.counters.forced_deliveries == 0


def test_faulty_network_without_crc_delivers_corruptions():
    # with CRC off nothing notices a corruption, so the timed path must
    # not retransmit it; each transfer is still exactly one draw
    plan = FaultPlan("nocrc", 4, 0,
                     (payload_corruption(0, None, probability=0.9,
                                         src=0, dst=1),))
    runtime = PlanRuntime(plan, ResiliencePolicy(crc_check=False))
    net = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
    plain = Network(nvlink_mesh(4))
    for _ in range(20):
        assert net.transfer(0, 1, 4096, 0.0) == plain.transfer(0, 1, 4096,
                                                               0.0)
    assert runtime.counters.retries == 0
    assert runtime.counters.corrupt_delivered > 0
    assert runtime.records == []
    reference = np.random.default_rng(plan.seed)
    reference.random(20)
    assert runtime.rng.bit_generator.state \
        == reference.bit_generator.state


def test_faulty_network_without_crc_still_retries_losses():
    # one draw splits into a loss band and a corruption band: without
    # CRC only the loss band retransmits
    plan = FaultPlan("mixed", 4, 0,
                     (message_loss(0, None, probability=0.5, src=0, dst=1),
                      payload_corruption(0, None, probability=0.5,
                                         src=0, dst=1)))
    runs = {}
    for crc in (True, False):
        runtime = PlanRuntime(plan, ResiliencePolicy(crc_check=crc))
        net = FaultyNetwork(nvlink_mesh(4), "shm", runtime)
        for _ in range(40):
            net.transfer(0, 1, 4096, 0.0)
        runs[crc] = runtime.counters
    assert 0 < runs[False].retries < runs[True].retries
    assert runs[False].corrupt_delivered > 0
    assert runs[True].corrupt_delivered == 0


def test_heartbeat_arrivals_match_a_plain_network_replay():
    # crash-rejoin degrades no link, so every beat's arrival is the
    # plain store-and-forward time of the same send sequence, a dead
    # rank's silence is the only gap, and nothing is logged as lost
    world = 4
    runtime = PlanRuntime(make_campaign("crash-rejoin", world=world))
    transport = HeartbeatTransport(runtime, world)
    plain = Network(nvlink_mesh(world))
    for step in range(1, 21):
        faults = runtime.advance(step)
        arrivals = transport.beats(step)
        emits = sorted(
            (step * INTERVAL + COMPUTE_COST * INTERVAL
             * faults.compute_scale(rank), rank)
            for rank in range(world) if rank not in faults.dead_ranks())
        expected = {rank: None for rank in faults.dead_ranks()}
        for emit, rank in emits:
            expected[rank] = plain.transfer(rank, 0, HEARTBEAT_BYTES, emit)
        assert arrivals == expected
    assert not any(runtime.records_of("hb_lost"))
    assert runtime.counters.heartbeat_misses == 0
    assert runtime.counters.heartbeats == 20 * world - 5   # steps 4..8 dead


def test_faulty_network_scales_straggler_kernels():
    plan = FaultPlan("strag", 4, 0,
                     (straggler(0, None, rank=2, factor=2.0),))
    net = FaultyNetwork(nvlink_mesh(4), "shm", PlanRuntime(plan))
    fast = net.run_kernel(0, "compress", 1e-3, 0.0)
    slowed = net.run_kernel(2, "compress", 1e-3, 0.0)
    assert slowed == pytest.approx(2.0 * fast)


# -- engine + trainer --------------------------------------------------------

def _grads(world, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"w": (8, 8), "b": (8,)}
    return [{name: rng.normal(size=shape).astype(np.float32)
             for name, shape in shapes.items()} for _ in range(world)]


def test_engine_quorum_reduce_conserves_mass():
    engine = CommunicationEngine(CGXConfig(compression=CompressionSpec()))
    world = 4
    rng = np.random.default_rng(0)
    grads = _grads(world)
    total = {name: np.zeros_like(grads[0][name]) for name in grads[0]}
    # degraded step (rank 3 missing) followed by full steps: carries
    # drain and the long-run sum matches full synchronization.
    outs, report = engine.reduce(grads, rng, participants=[0, 1, 2],
                                 average=False)
    assert report.quorum_world == 3
    for name in total:
        total[name] += outs[0][name]
    outs, report = engine.reduce(grads, rng, average=False)
    assert report.quorum_world is None
    for name in total:
        total[name] += outs[0][name]
    expected = {name: 2.0 * np.sum([g[name] for g in grads], axis=0)
                for name in grads[0]}
    for name in total:
        np.testing.assert_allclose(total[name], expected[name],
                                   rtol=1e-4, atol=1e-4)


def test_trainer_rejects_mismatched_plan_world():
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    with pytest.raises(ValueError):
        DataParallelTrainer(task, world_size=4,
                            fault_plan=make_campaign("straggler", world=8))


def test_trainer_crash_rejoin_counters_and_convergence():
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    clean = train_family("mlp", world_size=4, config=config, steps=20, seed=0)
    faulty = train_family("mlp", world_size=4, config=config, steps=20,
                          seed=0, fault_plan=make_campaign("crash-rejoin"))
    summary = faulty.fault_summary
    assert summary["crashes"] == 1
    assert summary["rejoins"] == 1
    assert summary["checkpoint_restores"] >= 1   # peer state adoption
    assert abs(faulty.final_loss - clean.final_loss) < 0.02


@pytest.mark.parametrize("campaign,engaged", [
    ("straggler", "quorum_steps"), ("lossy-link", "retries"),
    ("crash-rejoin", "crashes")])
def test_fixed_world_campaigns_engage_and_converge(campaign, engaged):
    assert campaign in FIXED_WORLD_CAMPAIGNS
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    clean = train_family("mlp", world_size=4, config=config, steps=20, seed=0)
    run = train_family("mlp", world_size=4, config=config, steps=20, seed=0,
                       fault_plan=make_campaign(campaign, world=4, seed=0))
    assert abs(run.final_loss - clean.final_loss) < 0.02
    assert run.fault_summary[engaged] > 0, run.fault_summary


def test_trainer_checkpoint_restore_round_trip():
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    trainer = DataParallelTrainer(task, world_size=2, config=config, seed=0)
    for _ in range(3):
        trainer.train_step()
    snapshot = trainer.capture_state()
    before = {name: param.data.copy()
              for name, param in trainer.replicas[0].named_parameters()}
    for _ in range(3):
        trainer.train_step()
    trainer.restore_state(snapshot)
    assert trainer._step_index == snapshot["step"]
    for replica in trainer.replicas:
        for name, param in replica.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])


def test_training_determinism_under_faults():
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    results = [
        train_family("mlp", world_size=4, config=config, steps=12, seed=0,
                     fault_plan=make_campaign("lossy-link", seed=5))
        for _ in range(2)
    ]
    assert results[0].final_loss == results[1].final_loss
    assert results[0].fault_summary == results[1].fault_summary


# -- satellite fixes ---------------------------------------------------------

def test_partial_full_participation_skips_late_broadcast():
    world = 4
    bufs = make_buffers(world)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    reducer = PartialAllreduce(world)
    comp = make_compressor(CompressionSpec())
    outs, stats = reducer.reduce(bufs, list(range(world)), comp,
                                 np.random.default_rng(0))
    for out in outs:
        np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)
    # no laggards: no late-broadcast re-encode, so the recompression
    # depth stays at the plain SRA bound
    assert stats.max_recompressions == 2
    assert not reducer.has_carries()


# -- PR 5 satellites: policy hardening + counters ----------------------------

def test_backoff_is_capped():
    # exponential until the 0.25 s cap, then flat
    assert backoff(8) == 0.128
    assert backoff(9) == 0.25
    assert backoff(50) == 0.25


def test_fault_counters_round_trip_every_field():
    import dataclasses

    from repro.faults import FaultCounters

    names = [f.name for f in dataclasses.fields(FaultCounters)]
    # give every counter a distinct value; merge and to_dict must see all
    a = FaultCounters(**{name: i + 1 for i, name in enumerate(names)})
    b = FaultCounters(**{name: 100 for name in names})
    exported = a.to_dict()
    assert set(exported) == set(names)
    assert all(exported[name] == i + 1 for i, name in enumerate(names))
    a.merge(b)
    assert all(getattr(a, name) == i + 101 for i, name in enumerate(names))


# -- PR 5 satellites: rejoin edge coverage -----------------------------------

def _mlp_trainer(plan, world=4, supervised=False, seed=0):
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    return DataParallelTrainer(task, world_size=world, config=config,
                               recipe=recipe, seed=seed, fault_plan=plan,
                               supervised=supervised)


def test_adopt_peer_state_with_no_healthy_peer_keeps_stale_weights():
    # rank 1 rejoins while every other rank is dead: there is no
    # adoption source, so the stale weights must survive untouched
    plan = FaultPlan("lonely-rejoin", 2, 0, (crash(rank=1, at=2, rejoin=4),))
    trainer = _mlp_trainer(plan, world=2)
    for _ in range(3):
        trainer.train_step()
    stale = {name: param.data.copy()
             for name, param in trainer.replicas[1].named_parameters()}
    stale_opt = trainer.optimizers[1].state_dict()
    before = len(trainer.fault_runtime.records)
    trainer._adopt_peer_state(1, dead={0})   # sole peer is dead
    for name, param in trainer.replicas[1].named_parameters():
        np.testing.assert_array_equal(param.data, stale[name])
    for key, vel in stale_opt["velocity"].items():
        np.testing.assert_array_equal(
            trainer.optimizers[1].state_dict()["velocity"][key], vel)
    # no state transfer happened (stale-weights path)
    kinds = [r.kind for r in trainer.fault_runtime.records[before:]]
    assert "state_transfer" not in kinds


def test_rank_crashed_from_step_zero_rejoins_later():
    plan = FaultPlan("born-dead", 4, 0, (crash(rank=2, at=0, rejoin=6),))
    trainer = _mlp_trainer(plan)
    losses = [trainer.train_step() for _ in range(10)]
    assert all(np.isfinite(losses))
    # on rejoin the newborn rank adopted a trained peer's state
    records = [r for r in trainer.fault_runtime.records
               if r.kind == "state_transfer"]
    assert len(records) == 1 and dict(records[0].detail)["rank"] == 2
    params2 = dict(trainer.replicas[2].named_parameters())
    for name, param in trainer.replicas[0].named_parameters():
        np.testing.assert_array_equal(param.data, params2[name].data)


# -- PR 5 satellite: checkpoint snapshots are aliasing-safe ------------------

def test_checkpoint_snapshot_survives_live_state_dict_refs(monkeypatch):
    """Even an optimizer whose state_dict leaks live buffers must not let
    later training mutate an earlier checkpoint."""
    trainer = _mlp_trainer(None, world=2)
    for _ in range(3):
        trainer.train_step()

    leaky = trainer.optimizers[0]
    real_state = leaky.state_dict()

    def live_refs():
        # hand back the *live* arrays, not copies
        return {"velocity": leaky._velocity}

    monkeypatch.setattr(leaky, "state_dict", live_refs)
    snapshot = trainer.capture_state()
    monkeypatch.undo()
    frozen = {k: v.copy()
              for k, v in snapshot["optimizers"][0]["velocity"].items()}

    for _ in range(4):
        trainer.train_step()
    # training moved the optimizer on; the snapshot must not have moved
    assert any(not np.array_equal(leaky._velocity[k], frozen[k])
               for k in frozen)
    for k, v in frozen.items():
        np.testing.assert_array_equal(
            snapshot["optimizers"][0]["velocity"][k], v)
    del real_state


# -- the two paths' failure rate per attempt ----------------------------------

class _ScriptedDraws:
    """A generator whose ``random()`` replays ``draws`` first."""

    def __init__(self, draws, rng):
        self.draws, self.rng = list(draws), rng

    def random(self):
        return self.draws.pop(0) if self.draws else self.rng.random()

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.xfail(strict=True, reason=(
    "FaultyNetwork prices loss and corruption as independent hazards, "
    "1 - (1 - p_loss)(1 - p_corrupt) = 0.1904 per attempt on lossy-link; "
    "FaultChannel.deliver fails a draw below p_loss + p_corrupt = 0.20"))
def test_data_path_fails_a_message_at_the_timed_path_rate():
    from repro.collectives.base import ReduceStats
    from repro.faults.inject import FaultChannel

    draw = 0.195
    timed, data = (PlanRuntime(make_campaign("lossy-link", world=4, seed=0))
                   for _ in range(2))
    for runtime in (timed, data):
        runtime.advance(4)
        runtime.rng = _ScriptedDraws([draw], runtime.rng)
    faults = timed.faults()
    p_loss = faults.loss_probability(0, 1)
    p_corrupt = faults.corrupt_probability(0, 1)
    assert 1.0 - (1.0 - p_loss) * (1.0 - p_corrupt) < draw < p_loss + p_corrupt

    FaultyNetwork(nvlink_mesh(4), "shm", timed).transfer(0, 1, 1 << 10, 0.0)
    assert timed.counters.retries == 0       # the timed path delivers

    wire = make_compressor(CompressionSpec("none")).compress(
        np.ones(8, dtype=np.float32), np.random.default_rng(0))
    FaultChannel(data).deliver(wire, ReduceStats("sra", 4, 8), 0, 1, 4, "t")
    assert data.counters.corrupt_detected == data.counters.lost == 0
