"""Tests for the autonomous health stack: detector, monitor, supervisor."""

import numpy as np
import pytest

from repro.compression import CompressionSpec
from repro.core import CGXConfig
from repro.faults import (
    CheckpointStore,
    FaultPlan,
    HealthMonitor,
    HeartbeatTransport,
    PlanRuntime,
    RankHealth,
    Supervisor,
    crash,
    message_loss,
    straggler,
)
from repro.faults.health import (BOOTSTRAP_TIMEOUT, ESCALATION_FLAPS,
                                 PHI_CRASH, STRAGGLER_PATIENCE,
                                 PhiAccrualDetector)
from repro.training.recipes import get_recipe
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer


def card(rank, verdict, lag=1.0, phi=0.0, beats=5, last=1.0):
    return RankHealth(rank, verdict, phi, lag, beats, last)


# -- PhiAccrualDetector ------------------------------------------------------

def test_phi_is_zero_on_time_and_grows_with_silence():
    det = PhiAccrualDetector()
    for t in (1.0, 2.0, 3.0, 4.0):
        det.heartbeat(t)
    assert det.beats_seen == 4
    assert det.mean_interval() == pytest.approx(1.0)
    assert det.phi(4.5) == 0.0          # gap shorter than the mean
    phis = [det.phi(4.0 + gap) for gap in (1.5, 2.0, 3.0, 5.0)]
    assert phis == sorted(phis) and phis[0] > 0.0
    assert det.phi(4.0 + 3.0) >= PHI_CRASH  # two missed beats


def test_phi_before_any_beat_is_zero_and_reset_forgets_history():
    det = PhiAccrualDetector()
    assert det.phi(100.0) == 0.0
    det.heartbeat(1.0)
    det.heartbeat(2.0)
    det.reset()
    assert det.last is None and len(det.intervals) == 0
    assert det.beats_seen == 2           # lifetime count survives reset


def test_sigma_floor_keeps_metronome_history_finite():
    det = PhiAccrualDetector()
    for t in range(1, 12):
        det.heartbeat(float(t))          # zero-variance inter-arrivals
    assert np.isfinite(det.phi(11.0 + 2.4))


# -- HealthMonitor -----------------------------------------------------------

def test_monitor_bootstrap_grace_then_crashed_from_start():
    monitor = HealthMonitor(2)
    for step in range(5):
        cards = monitor.observe(step, {0: step + 0.5, 1: None})
        if (step + 1) < BOOTSTRAP_TIMEOUT:
            assert cards[1].verdict == "healthy"   # still in grace
        else:
            assert cards[1].verdict == "crashed"
            assert cards[1].beats_seen == 0
    assert cards[0].verdict == "healthy"


def test_monitor_holds_late_beat_for_next_window():
    monitor = HealthMonitor(2)
    # rank 1's beat for step 0 arrives inside step 1's window
    monitor.observe(0, {0: 0.5, 1: 1.4})
    assert monitor._detectors[1].beats_seen == 0
    cards = monitor.observe(1, {0: 1.5, 1: None})
    assert monitor._detectors[1].beats_seen == 1
    assert cards[1].lag > cards[0].lag   # late vs schedule shows as lag


def test_monitor_straggler_needs_patience():
    monitor = HealthMonitor(4)
    verdicts = []
    for step in range(6):
        base = step + 0.5
        # rank 3 runs at 2.5x compute: offset 1.25 vs fleet median 0.5
        cards = monitor.observe(step, {0: base, 1: base, 2: base,
                                       3: step + 1.25})
        verdicts.append(cards[3].verdict)
    assert "straggler" in verdicts
    first = verdicts.index("straggler")
    assert all(v != "straggler" for v in verdicts[:first])
    assert first + 1 >= STRAGGLER_PATIENCE
    assert all(v == "straggler" for v in verdicts[first:])


def test_monitor_resets_history_on_rejoin_gap():
    monitor = HealthMonitor(1)
    for step in range(4):
        monitor.observe(step, {0: step + 0.5})
    # long silence, then beats resume: the outage gap must not enter
    # the inter-arrival history as a sample
    for step in range(4, 10):
        monitor.observe(step, {0: None})
    cards = monitor.observe(10, {0: 10.5})
    det = monitor._detectors[0]
    assert max(det.intervals, default=0.0) < 2.0
    assert cards[0].verdict == "healthy"


def test_monitor_reset_clears_all_state():
    monitor = HealthMonitor(2)
    monitor.observe(0, {0: 0.5, 1: 0.5})
    monitor.reset()
    assert all(d.last is None for d in monitor._detectors)
    assert monitor._offset == [None, None]
    assert monitor._pending == []


# -- HeartbeatTransport ------------------------------------------------------

def test_dead_rank_emits_nothing():
    plan = FaultPlan("one-dead", 4, 0, (crash(rank=2, at=0),))
    runtime = PlanRuntime(plan)
    transport = HeartbeatTransport(runtime, 4)
    runtime.advance(0)
    arrivals = transport.beats(0)
    assert arrivals[2] is None
    assert all(arrivals[r] is not None for r in (0, 1, 3))
    assert runtime.counters.heartbeats == 3
    # a dead process never emitted, so nothing was *lost* on the wire
    assert runtime.counters.heartbeat_misses == 0


def test_monitor_rank_loopback_never_drops():
    plan = FaultPlan("storm", 2, 7,
                     (message_loss(0, None, probability=0.99),))
    runtime = PlanRuntime(plan)
    transport = HeartbeatTransport(runtime, 2)
    for step in range(10):
        runtime.advance(step)
        arrivals = transport.beats(step)
        assert arrivals[0] is not None   # loopback exempt from loss
    assert runtime.counters.heartbeat_misses > 0
    assert any(r.kind == "hb_lost" for r in runtime.records)


def test_straggler_beat_emitted_late():
    plan = FaultPlan("slow", 4, 0,
                     (straggler(0, None, rank=3, factor=3.0),))
    runtime = PlanRuntime(plan)
    transport = HeartbeatTransport(runtime, 4)
    runtime.advance(0)
    arrivals = transport.beats(0)
    healthy = [arrivals[r] for r in (1, 2)]
    # stretched compute delays the emission; healthy peers must not be
    # queued behind it on the shared store-and-forward links
    assert arrivals[3] > max(healthy)
    assert max(healthy) < 1.0


# -- Supervisor --------------------------------------------------------------

def test_supervisor_requires_rejoin_confirmations():
    sup = Supervisor(2)
    d = sup.decide(0, {0: card(0, "healthy"), 1: card(1, "crashed")})
    assert d.newly_suspected == (1,) and d.believed_dead == {1}
    # one healthy assessment is not enough to re-admit
    d = sup.decide(1, {0: card(0, "healthy"), 1: card(1, "healthy")})
    assert d.admitted == () and 1 in d.believed_dead
    # an unhealthy assessment resets the confirmation streak
    d = sup.decide(2, {0: card(0, "healthy"), 1: card(1, "flaky")})
    d = sup.decide(3, {0: card(0, "healthy"), 1: card(1, "healthy")})
    assert d.admitted == ()
    d = sup.decide(4, {0: card(0, "healthy"), 1: card(1, "healthy")})
    assert d.admitted == (1,) and d.believed_dead == frozenset()
    assert d.participants == (0, 1)


def test_supervisor_quorum_floor_readmits_least_slow_straggler():
    sup = Supervisor(4)                  # floor = ceil(0.5 * 4) = 2
    cards = {0: card(0, "healthy"),
             1: card(1, "straggler", lag=2.5),
             2: card(2, "straggler", lag=4.0),
             3: card(3, "crashed")}
    d = sup.decide(0, cards)
    # rank 1 (least-slow straggler) is pulled back to satisfy quorum
    assert d.participants == (0, 1)
    assert d.demoted == (2,)


def test_supervisor_escalates_after_repeated_flaps():
    sup = Supervisor(2)
    escalated = []
    for cycle in range(ESCALATION_FLAPS):
        d = sup.decide(2 * cycle,
                       {0: card(0, "healthy"), 1: card(1, "crashed")})
        escalated.append(d.escalate)
        sup.believed_dead.discard(1)     # simulate an admitted rejoin
    assert escalated == [False, False, True]
    # flap counter resets after escalation fires
    d = sup.decide(99, {0: card(0, "healthy"), 1: card(1, "crashed")})
    assert not d.escalate


def test_supervisor_reset_forgets_beliefs():
    sup = Supervisor(2)
    sup.decide(0, {0: card(0, "healthy"), 1: card(1, "crashed")})
    sup.reset()
    assert sup.believed_dead == set()
    assert not sup.flaps and not sup._pending_rejoin


# -- supervised training integration -----------------------------------------

def _supervised_trainer(plan, store=None, seed=0):
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    return DataParallelTrainer(task, world_size=4, config=config,
                               recipe=recipe, seed=seed, fault_plan=plan,
                               supervised=True, store=store)


def test_supervised_fault_free_run_raises_no_alarms():
    plan = FaultPlan("quiet", 4, 0, ())
    trainer = _supervised_trainer(plan)
    result = trainer.train(8)
    assert np.isfinite(result.final_loss)
    c = trainer.fault_runtime.counters
    assert c.suspected_crashes == 0
    assert c.false_suspicions == 0
    assert c.straggler_demotions == 0
    assert c.oracle_reads == 0
    assert c.heartbeats > 0


@pytest.mark.parametrize("overlap", [False, True],
                         ids=["sequential", "overlap"])
def test_fault_free_modes_are_bit_identical(overlap):
    # no plan, an oracle-mode fault-free plan and the same plan under
    # the heartbeat supervisor all take the one decision path and must
    # train bit-identically: a coordinator that never receives a notice
    # and a supervisor that never suspects anyone decide nothing
    recipe = get_recipe("mlp")
    task = make_task("mlp", batch_size=recipe.batch_size, **recipe.kwargs())
    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))

    def run(plan, supervised):
        trainer = DataParallelTrainer(
            task, world_size=4, config=config, recipe=recipe, seed=0,
            fault_plan=plan, supervised=supervised, overlap=overlap)
        return trainer, [trainer.train_step().hex() for _ in range(10)]

    _, baseline = run(None, False)
    oracle, oracle_losses = run(FaultPlan("fault-free", 4, 0), False)
    sup, sup_losses = run(FaultPlan("fault-free", 4, 0), True)
    assert baseline == oracle_losses == sup_losses
    assert sup.fault_runtime.counters.oracle_reads == 0
    assert sup.fault_runtime.counters.heartbeats == 10 * 4
    for trainer in (oracle, sup):
        assert trainer.in_sync()
        assert trainer.fault_runtime.counters.quorum_steps == 0
        assert trainer.elastic.history == [
            (step, (0, 1, 2, 3)) for step in range(1, 11)]
        assert not any(trainer.fault_runtime.records_of("state_transfer"))


def test_supervised_crash_rejoin_recovers_on_heartbeats_alone():
    from repro.faults import make_campaign
    from repro.training import train_family

    config = CGXConfig(compression=CompressionSpec("qsgd", bits=4))
    oracle, sup = (
        train_family("mlp", world_size=4, config=config, steps=20, seed=0,
                     fault_plan=make_campaign("crash-rejoin"),
                     supervised=supervised)
        for supervised in (False, True))
    assert abs(sup.final_loss - oracle.final_loss) < 0.02
    counters = sup.fault_summary
    assert counters["suspected_crashes"] > 0
    assert counters["rejoin_admissions"] > 0
    assert counters.get("false_suspicions", 0) == 0
    assert counters.get("oracle_reads", 0) == 0


def test_supervised_escalation_restores_from_durable_store(tmp_path):
    # one rank flaps crash/rejoin three times: the third suspicion must
    # escalate to a checkpoint restore instead of yet another transfer
    plan = FaultPlan("flapper", 4, 0,
                     (crash(rank=1, at=2, rejoin=4),
                      crash(rank=1, at=8, rejoin=10),
                      crash(rank=1, at=14, rejoin=None)))
    store = CheckpointStore(str(tmp_path))
    trainer = _supervised_trainer(plan, store=store)
    result = trainer.train(24)
    assert np.isfinite(result.final_loss)
    c = trainer.fault_runtime.counters
    assert c.suspected_crashes >= 3
    assert c.escalations >= 1
    assert c.store_writes >= 1
    kinds = [r.kind for r in trainer.fault_runtime.records]
    assert "escalate" in kinds
    assert "escalation_restore" in kinds
    assert store.steps()                 # durable checkpoints on disk


def test_supervised_same_seed_runs_are_byte_identical():
    logs = []
    for _ in range(2):
        plan = FaultPlan("flap-once", 4, 3, (crash(rank=2, at=3, rejoin=7),))
        trainer = _supervised_trainer(plan, seed=11)
        trainer.train(12)
        logs.append(trainer.fault_runtime.log_bytes())
    assert logs[0] == logs[1]
