"""Elastic membership: plan events, coordinator protocol, trainer runs."""

import numpy as np
import pytest

from repro.compression import CompressionSpec
from repro.core import AdaptiveController, CGXConfig
from repro.core.overlap import OverlapDelays, OverlapReport
from repro.faults import (CheckpointStore, ElasticCoordinator, FaultPlan,
                          PlanRuntime, check_drain_protocol, crash,
                          fleet_alpha_scale, gpu_compute_scale, make_campaign, preempt_warning,
                          provision, spot_churn_campaign, straggler)
from repro.training.recipes import get_recipe
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer

WORLD = 4
STEPS = 20


def _trainer(plan, supervised=False, store=None, adaptive=None, seed=0,
             overlap=False):
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    return DataParallelTrainer(
        task, world_size=WORLD, config=CGXConfig.cgx_default(128),
        recipe=recipe, seed=seed, fault_plan=plan, supervised=supervised,
        store=store, adaptive=adaptive, overlap=overlap)


def _run(trainer, steps=STEPS):
    return [trainer.train_step() for _ in range(steps)]


# -- plan events and validation hardening ------------------------------------

def test_preempt_warning_event_fields():
    event = preempt_warning(rank=2, at=5, deadline_steps=4)
    assert event.kind == "preempt_warning" and event.deadline == 9
    assert event.to_dict()["deadline_steps"] == 4


def test_preempt_warning_rejects_empty_drain_window():
    with pytest.raises(ValueError, match="deadline_steps must be > 0"):
        preempt_warning(rank=0, at=3, deadline_steps=0)
    with pytest.raises(ValueError, match="deadline_steps must be > 0"):
        preempt_warning(rank=0, at=3, deadline_steps=-2)


def test_provision_requires_known_gpu():
    assert provision(rank=4, at=2, gpu_spec="V100").gpu == "V100"
    with pytest.raises(ValueError, match="unknown gpu"):
        provision(rank=4, at=2, gpu_spec="TPUv9")


def test_crash_rejoin_before_crash_names_both_steps():
    with pytest.raises(ValueError,
                       match="rejoin step 3 must be > crash step 5"):
        crash(rank=1, at=5, rejoin=3)


def test_provision_rejects_rank_already_in_world():
    with pytest.raises(ValueError, match="already in the initial world"):
        FaultPlan("p", WORLD, 0, (provision(rank=1, at=2),))


def test_provision_rejects_duplicate_rank():
    with pytest.raises(ValueError, match="provisioned twice"):
        FaultPlan("p", WORLD, 0, (provision(rank=4, at=2),
                                  provision(rank=4, at=6)))


def test_provision_ranks_must_be_contiguous():
    with pytest.raises(ValueError, match="extend the world contiguously"):
        FaultPlan("p", WORLD, 0, (provision(rank=6, at=2),))


def test_fault_on_provisioned_rank_cannot_predate_its_boot():
    with pytest.raises(ValueError, match="machine does not exist yet"):
        FaultPlan("p", WORLD, 0, (provision(rank=4, at=6),
                                  crash(rank=4, at=3)))
    with pytest.raises(ValueError, match="machine does not exist yet"):
        FaultPlan("p", WORLD, 0, (provision(rank=4, at=6),
                                  preempt_warning(rank=4, at=2,
                                                  deadline_steps=3)))


def test_warning_twice_on_same_rank_rejected():
    with pytest.raises(ValueError, match="warned twice"):
        FaultPlan("p", WORLD, 0,
                  (preempt_warning(rank=1, at=2, deadline_steps=3),
                   preempt_warning(rank=1, at=9, deadline_steps=3)))


def test_provisioned_rank_usable_by_later_events():
    plan = FaultPlan("p", WORLD, 0,
                     (provision(rank=4, at=2),
                      straggler(5, 8, rank=4, factor=1.5)))
    assert plan.max_world == WORLD + 1


def test_plan_roundtrips_elastic_events():
    plan = spot_churn_campaign(WORLD, seed=3)
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone == plan


# -- physics: notices are control-plane, reclaim is unconditional ------------

def test_notices_do_not_trip_the_oracle_guard():
    from repro.faults import oracle_guard

    plan = spot_churn_campaign(WORLD)
    faults = plan.at_step(4)
    with oracle_guard() as reads:
        faults.preempt_notices()
        faults.provision_notices()
    assert reads == []
    with oracle_guard() as reads:
        faults.dead_ranks()
    assert reads == ["dead_ranks"]


def test_warned_rank_is_dead_from_its_deadline():
    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=4, deadline_steps=3),))
    assert 3 not in plan.at_step(6).dead_ranks()
    assert 3 in plan.at_step(7).dead_ranks()
    assert 3 in plan.at_step(15).dead_ranks()


def test_reclaim_recorded_as_spot_reclaim_not_crash():
    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=2, deadline_steps=2),))
    runtime = PlanRuntime(plan)
    for step in range(1, 6):
        runtime.advance(step)
    kinds = [r.kind for r in runtime.records]
    assert "spot_reclaim" in kinds and "crash" not in kinds
    assert runtime.counters.spot_reclaims == 1


# -- heterogeneous envelopes --------------------------------------------------

def test_gpu_compute_scale_anchored_on_table1():
    assert gpu_compute_scale("RTX3090") == pytest.approx(1.0)
    assert gpu_compute_scale("RTX2080Ti") > 1.5   # slower than reference
    assert gpu_compute_scale("V100") < 1.0        # faster


def test_fleet_alpha_scale_clamped():
    assert fleet_alpha_scale(["RTX3090"] * 4) == pytest.approx(1.0)
    assert fleet_alpha_scale(["V100"] * 8) == pytest.approx(1226 / 850)
    assert fleet_alpha_scale(["RTX2080Ti"] * 8) == 0.75   # lo clamp
    assert fleet_alpha_scale([]) == 1.0


# -- coordinator protocol -----------------------------------------------------

def _coordinator(plan, supervised=False):
    runtime = PlanRuntime(plan)
    return ElasticCoordinator(runtime, plan.world,
                              supervised=supervised), runtime


def test_coordinator_admits_after_boot_when_drained():
    plan = FaultPlan("p", WORLD, 0, (provision(rank=4, at=3),))
    coord, runtime = _coordinator(plan)
    for step in (1, 2):
        coord.poll_notices(step, runtime.advance(step))
        assert coord.admit(step, drained=True).joined == ()
    coord.poll_notices(3, runtime.advance(3))
    decision = coord.admit(3, drained=True)
    assert decision.joined == (4,) and coord.member_list() == [0, 1, 2, 3, 4]
    assert runtime.counters.provision_admissions == 1


def test_coordinator_defers_admission_until_drained():
    plan = FaultPlan("p", WORLD, 0, (provision(rank=4, at=1),))
    coord, runtime = _coordinator(plan)
    coord.poll_notices(1, runtime.advance(1))
    assert coord.admit(1, drained=False).deferred == (4,)
    assert coord.admit(2, drained=True).joined == (4,)


def test_supervised_coordinator_waits_for_confirmation():
    plan = FaultPlan("p", WORLD, 0, (provision(rank=4, at=1),))
    coord, runtime = _coordinator(plan, supervised=True)
    coord.poll_notices(1, runtime.advance(1))
    assert coord.admit(1, drained=True).joined == ()   # unconfirmed
    coord.confirm([4])
    assert coord.admit(2, drained=True).joined == (4,)


def test_draining_rank_exits_before_deadline():
    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=2, deadline_steps=4),))
    coord, runtime = _coordinator(plan)
    faults = runtime.advance(2)
    coord.poll_notices(2, faults)
    coord.admit(2, drained=True)
    exited = coord.end_step(2, drained=True, dead=faults.dead_ranks())
    assert exited == (3,) and coord.member_list() == [0, 1, 2]
    assert runtime.counters.graceful_exits == 1
    assert check_drain_protocol(plan, runtime.records) == []


def test_drain_blocked_by_quorum_floor_degrades_at_deadline():
    # two of three ranks warned for one deadline under the 0.5 floor
    # (ceil(0.5 * 3) = 2 members): rank 1 drains out, which leaves no
    # headroom for rank 2, so it must degrade to the crash path (never
    # worse than a plain crash)
    plan = FaultPlan("p", 3, 0,
                     (preempt_warning(rank=1, at=1, deadline_steps=2),
                      preempt_warning(rank=2, at=1, deadline_steps=2)))
    runtime = PlanRuntime(plan)
    coord = ElasticCoordinator(runtime, 3)
    assert coord.min_members == 2
    for step in (1, 2, 3):
        faults = runtime.advance(step)
        coord.poll_notices(step, faults)
        coord.admit(step, drained=True)
        coord.end_step(step, drained=True, dead=faults.dead_ranks())
    assert coord.member_list() == [0, 2]   # slot remains; physics kills it
    assert coord.degraded == {2}
    assert runtime.counters.drain_missed == 1
    assert runtime.counters.graceful_exits == 1
    assert check_drain_protocol(plan, runtime.records) == []


def test_tampered_log_trips_drain_protocol_audit():
    # a warned rank that neither drains nor degrades — e.g. a trainer
    # that keeps it sending past the reclaim — is caught from the log
    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=2, deadline_steps=3),))
    runtime = PlanRuntime(plan)
    coord = ElasticCoordinator(runtime, WORLD)
    for step in range(1, 8):
        faults = runtime.advance(step)
        coord.poll_notices(step, faults)
        coord.admit(step, drained=True)
        # tamper: the graceful-exit/degrade bookkeeping never runs
    violations = check_drain_protocol(plan, runtime.records)
    assert len(violations) == 1
    assert "neither drained out nor degraded" in violations[0]


def test_tampered_late_exit_trips_audit():
    from repro.faults import FaultRecord

    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=2, deadline_steps=3),))
    # a forged log whose exit lands at the deadline itself — one step
    # past the last legal drain step
    records = [FaultRecord(5, "spot_exit",
                           tuple(sorted({"rank": 3, "deadline": 5}.items())))]
    violations = check_drain_protocol(plan, records)
    assert any("kept sending after the provider reclaimed" in v
               for v in violations)


def test_departed_rank_reappearing_trips_audit():
    from repro.faults import FaultRecord

    plan = FaultPlan("p", WORLD, 0,
                     (preempt_warning(rank=3, at=2, deadline_steps=3),))
    records = [
        FaultRecord(3, "spot_exit",
                    tuple(sorted({"rank": 3, "deadline": 5}.items()))),
        FaultRecord(7, "membership",
                    tuple(sorted({"members": "0,1,2,3"}.items()))),
    ]
    violations = check_drain_protocol(plan, records)
    assert any("reappears in the membership" in v for v in violations)


# -- end-to-end campaigns -----------------------------------------------------

def test_spot_churn_campaign_oracle_clean():
    plan = make_campaign("spot-churn", WORLD)
    trainer = _trainer(plan)
    losses = _run(trainer)
    runtime = trainer.fault_runtime
    assert np.isfinite(losses[-1])
    assert runtime.counters.preempt_warnings == 2
    assert runtime.counters.graceful_exits == 2
    assert runtime.counters.provision_admissions == 2
    assert runtime.counters.drain_missed == 0
    assert trainer.elastic.member_list() == [0, 1, 4, 5]
    assert check_drain_protocol(plan, runtime.records) == []
    assert trainer.in_sync()


def test_autoscale_burst_grows_then_sheds():
    plan = make_campaign("autoscale-burst", WORLD)
    trainer = _trainer(plan)
    _run(trainer)
    coord = trainer.elastic
    assert len(coord.members) == 5       # +2 provisioned, -1 preempted
    counters = trainer.fault_runtime.counters
    assert counters.preempt_warnings > 0 and counters.graceful_exits > 0
    assert counters.provision_admissions > 0 and counters.drain_missed == 0
    assert coord.rank_gpus[5] == "A6000"
    assert trainer.in_sync()


def test_supervised_spot_churn_zero_oracle_reads():
    plan = make_campaign("spot-churn", WORLD)
    trainer = _trainer(plan, supervised=True)
    losses = _run(trainer)
    runtime = trainer.fault_runtime
    assert np.isfinite(losses[-1])
    assert runtime.counters.oracle_reads == 0
    assert runtime.counters.graceful_exits == 2
    assert runtime.counters.provision_admissions == 2
    assert check_drain_protocol(plan, runtime.records) == []
    # supervised growth goes through heartbeat vetting
    kinds = [r.kind for r in runtime.records]
    assert "confirm_provision" in kinds
    assert kinds.count("admit_provisioned") == 2


def test_same_seed_campaigns_byte_identical():
    for name in ("spot-churn", "autoscale-burst"):
        logs = []
        for _ in range(2):
            trainer = _trainer(make_campaign(name, WORLD), supervised=True)
            _run(trainer)
            logs.append(trainer.fault_runtime.log_bytes())
        assert logs[0] == logs[1]


def test_elastic_loss_tracks_fixed_world_baseline():
    baseline = _run(_trainer(None))
    for name in ("spot-churn", "autoscale-burst"):
        losses = _run(_trainer(make_campaign(name, WORLD)))
        assert abs(losses[-1] - baseline[-1]) < 0.02


def test_drain_checkpoint_persisted_before_departure(tmp_path):
    plan = make_campaign("spot-churn", WORLD)
    store = CheckpointStore(str(tmp_path), keep=10)
    trainer = _trainer(plan, supervised=True, store=store)
    _run(trainer)
    runtime = trainer.fault_runtime
    exit_steps = [r.step for r in runtime.records if r.kind == "spot_exit"]
    ckpt_steps = [r.step for r in runtime.records
                  if r.kind == "drain_checkpoint"]
    assert ckpt_steps and set(ckpt_steps) == set(exit_steps)
    assert set(exit_steps) <= set(store.steps())


def test_respec_on_every_composition_change():
    plan = make_campaign("spot-churn", WORLD)
    config = CGXConfig.cgx_default(128)
    adaptive = AdaptiveController(config, period=5)
    trainer = _trainer(plan, adaptive=adaptive)
    _run(trainer)
    runtime = trainer.fault_runtime
    respecs = [r for r in runtime.records if r.kind == "respec"]
    # 2 exits + 2 admissions = 4 composition changes
    assert len(respecs) == 4 and runtime.counters.respecs == 4
    worlds = [dict(r.detail)["world"] for r in respecs]
    assert worlds == [3, 4, 3, 4]
    triggers = [e["trigger"] for e in adaptive.respec_history]
    assert any(t.startswith("composition:") for t in triggers)


def test_respec_alpha_scaled_by_fleet_mix():
    plan = make_campaign("autoscale-burst", WORLD)
    config = CGXConfig.cgx_default(128)
    adaptive = AdaptiveController(config, period=3)
    trainer = _trainer(plan, adaptive=adaptive)
    _run(trainer)
    scaled = [e for e in adaptive.respec_history
              if e["trigger"].startswith("composition:")]
    assert scaled
    # the burst adds a V100 and an A6000: fleet mean shifts off 1.0
    assert any(e["alpha"] != pytest.approx(adaptive.alpha) for e in scaled)


def test_departed_replica_frozen_after_exit():
    plan = make_campaign("spot-churn", WORLD)
    trainer = _trainer(plan)
    coord = trainer.elastic
    frozen = {}
    for _ in range(STEPS):
        trainer.train_step()
        for rank in coord.departed - set(frozen):
            frozen[rank] = {n: p.data.copy() for n, p in
                            trainer.replicas[rank].named_parameters()}
    assert frozen
    for rank, weights in frozen.items():
        now = dict(trainer.replicas[rank].named_parameters())
        for name, snap in weights.items():
            assert np.array_equal(snap, now[name].data)


def test_restore_state_regrows_elastic_replicas(tmp_path):
    plan = make_campaign("autoscale-burst", WORLD)
    store = CheckpointStore(str(tmp_path))
    trainer = _trainer(plan, supervised=True, store=store)
    _run(trainer)
    assert len(trainer.replicas) == WORLD + 2
    loaded = store.load_latest()
    assert loaded is not None
    fresh = _trainer(None)
    fresh.restore_state(loaded[1])
    assert len(fresh.replicas) == WORLD + 2


@pytest.mark.parametrize("supervised", [False, True],
                         ids=["oracle", "supervised"])
@pytest.mark.parametrize("campaign", ["spot-churn", "autoscale-burst",
                                      "straggler", "lossy-link",
                                      "crash-rejoin"])
def test_elastic_campaign_runs_overlapped(campaign, supervised,
                                          monkeypatch):
    """Elastic x overlap: membership changes between steps while every
    step still hides injected comm under injected compute (the
    patch-a-known-delay, assert-the-step-time-bound idiom of pytorch's
    test_fully_shard_overlap), and the trained model matches the
    sequential engine.

    The three fixed-world campaigns ride the same path: their
    coordinator never receives a notice, so its membership is the
    constant initial world and the log carries no control-plane record.
    """
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    names = [name for name, _ in task.build_model(0).named_parameters()]
    delays = OverlapDelays.uniform(names, compute=1e-3, comm_latency=2e-3)
    # the engine's delay model, patched as pytorch's test patches the
    # collective
    monkeypatch.setattr("repro.core.overlap.OverlapDelays.default_for",
                        staticmethod(lambda numels: delays))
    # deterministic compressor, one package per layer: both engine modes
    # sum the same chunks in the same order
    config = CGXConfig(
        compression=CompressionSpec("topk", density=0.25,
                                    error_feedback=True),
        filtered_keywords=(), min_compress_numel=16, fusion_bytes=2048)

    def run(overlap):
        plan = make_campaign(campaign, WORLD)
        trainer = DataParallelTrainer(
            task, world_size=WORLD, config=config, recipe=recipe, seed=0,
            fault_plan=plan, supervised=supervised, overlap=overlap)
        losses, reports = [], []
        for _ in range(STEPS):
            losses.append(trainer.train_step())
            reports.append(trainer.ddp.last_report)
        return plan, trainer, losses, reports

    _, _, sequential_losses, _ = run(overlap=False)
    plan, trainer, losses, reports = run(overlap=True)
    runtime = trainer.fault_runtime
    assert trainer.in_sync()
    assert check_drain_protocol(plan, runtime.records) == []
    assert runtime.counters.drain_missed == 0
    assert runtime.counters.oracle_reads == 0
    if campaign in ("spot-churn", "autoscale-burst"):
        assert runtime.counters.graceful_exits > 0
        assert runtime.counters.provision_admissions > 0
    else:
        assert trainer.elastic.history == [
            (step, tuple(range(WORLD))) for step in range(1, STEPS + 1)]
        for kind in ("provision", "preempt_warning", "preempt_unjoined",
                     "spot_exit", "drain_missed", "membership",
                     "admit_provisioned"):
            assert not any(runtime.records_of(kind)), kind
    if not (campaign == "lossy-link" and supervised):
        # heartbeat loss draws share the plan's rng stream with the data
        # path, whose message order differs between the engine modes, so
        # a supervised lossy run may suspect different ranks per mode
        assert abs(losses[-1] - sequential_losses[-1]) < 1e-6
    for report in reports:
        assert isinstance(report, OverlapReport)
        assert len(report.buckets) >= 2
        # the bound: comm of all but the last-sealed bucket hides under
        # the remaining backward compute
        assert report.overlapped_time < report.sequential_time
        assert report.overlap_ratio > 1.25
    assert run(overlap=True)[1].fault_runtime.log_bytes() \
        == runtime.log_bytes()


@pytest.mark.parametrize("supervised", [False, True],
                         ids=["oracle", "supervised"])
def test_provisioned_member_that_crashes_is_warm_started_on_rejoin(supervised):
    # one decision path: a rank that joined through a provision and
    # later crash-rejoins is re-admitted like any other member (the
    # supervised fork used to skip its state transfer: stale weights)
    plan = FaultPlan("prov-crash", WORLD, 0,
                     (provision(rank=WORLD, at=2, gpu_spec="V100"),
                      crash(rank=WORLD, at=8, rejoin=12)))
    trainer = _trainer(plan, supervised=supervised)
    _run(trainer, 24)
    runtime = trainer.fault_runtime
    transfers = [step for step, detail in runtime.records_of("state_transfer")
                 if detail["rank"] == WORLD]
    assert len(transfers) == 2            # the join, then the rejoin
    assert transfers[1] >= 12
    assert trainer.elastic.member_list() == list(range(WORLD + 1))
    assert trainer.in_sync()


def test_ddp_members_validation():
    trainer = _trainer(None)
    with pytest.raises(ValueError, match="member out of range"):
        trainer.ddp.synchronize(members=[0, 9])
    with pytest.raises(ValueError, match="are not members"):
        trainer.ddp.synchronize(participants=[3], members=[0, 1])
