"""Fleet simulator: shared-clock multi-job runs, isolation, fairness.

The two physics tests here are the subsystem's contract: jobs placed on
*disjoint* machines must finish at exactly the sim time they'd take
alone (sharing the clock is free), and jobs forced onto the *same*
links must slow down by the serialization the shared bottleneck
predicts — no more than full serialization, no less than the
competitor's occupancy of the hot link.
"""

import pytest

import repro.sched.fleet as fleet
from repro.cluster import Network, get_gpu, get_machine, make_cluster
from repro.models import ModelSpec, TensorSpec, build_spec
from repro.sched import (FleetSimulator, JobSpec, compute_metrics,
                         jain_fairness, percentile, sample_fleet)
from repro.training.perf import simulate_step

#: comm-dominated probe model: ~2M parameters of gradient with almost no
#: compute, so step times are pure communication and contention math is
#: predictable
TINY = ModelSpec("tinynet", tensors=[
    TensorSpec("fc1.weight", "linear", 1 << 20, flops=1e3, position=0,
               shape=(1024, 1024)),
    TensorSpec("fc2.weight", "linear", 1 << 20, flops=1e3, position=1,
               shape=(1024, 1024)),
], default_batch_per_gpu=1)
LIB = {"tinynet": TINY}


def _run(jobs, topology, **kwargs):
    kwargs.setdefault("spec_library", LIB)
    return FleetSimulator(topology, jobs, **kwargs).run()


def test_fleet_validates_inputs():
    topo = get_machine("rtx3090-8x").topology()
    with pytest.raises(KeyError):
        FleetSimulator(topo, [JobSpec(1, "tinynet", 2, 0.0, 1)],
                       policy="fifo", spec_library=LIB)
    with pytest.raises(ValueError):   # duplicate job ids
        FleetSimulator(topo, [JobSpec(1, "tinynet", 2, 0.0, 1),
                              JobSpec(1, "tinynet", 2, 1.0, 1)],
                       spec_library=LIB)
    with pytest.raises(ValueError):   # bigger than the whole fleet
        FleetSimulator(topo, [JobSpec(1, "tinynet", 16, 0.0, 1)],
                       spec_library=LIB)


@pytest.mark.parametrize("model,world,method", [
    ("resnet50", 4, "cgx"), ("transformer_xl", 8, "cgx"),
    ("vgg16", 2, "nccl")])
def test_one_job_fleet_step_equals_simulate_step(model, world, method):
    # the fleet runner and the single-job perf model replay the same
    # plan through the same replay_step: a lone job's step duration and
    # wire bytes are bit-exactly simulate_step's on the placed ranks
    cluster = make_cluster("rtx3090-8x", 2)
    job = JobSpec(1, model, world, 0.0, 1, method=method)
    state = FleetSimulator(cluster, [job]).run().states[0]
    config, plan_mode = job.build_config()
    alone = simulate_step(build_spec(model), get_gpu("RTX3090"), cluster,
                          config, plan_mode=plan_mode,
                          ranks=list(state.ranks),
                          network=Network(cluster, "shm"))
    assert state.step_durations == [alone.step_time]
    assert state.wire_bytes == alone.wire_bytes


def test_disjoint_jobs_run_as_if_alone():
    # two 8-rank jobs on a 2-node fleet: packed placement gives each its
    # own machine; no shared links means zero cross-job interference, so
    # finish times equal the single-job runs exactly
    together = _run([JobSpec(1, "tinynet", 8, 0.0, 2),
                     JobSpec(2, "tinynet", 8, 0.0, 2)],
                    make_cluster("rtx3090-8x", 2))
    assert [s.ranks for s in together.states] == \
        [tuple(range(8)), tuple(range(8, 16))]
    alone = _run([JobSpec(1, "tinynet", 8, 0.0, 2)],
                 make_cluster("rtx3090-8x", 2))
    for state in together.states:
        assert state.finish_time == alone.states[0].finish_time
    assert compute_metrics(together).mean_slowdown == pytest.approx(1.0)


def test_shared_link_jobs_pay_the_serialization_factor():
    # two 2-rank jobs under the same PCIe root share the host-memory
    # bottleneck; the first-scheduled job is untouched, the second is
    # delayed by (at least) the first's occupancy of the hot link and
    # (at most) full serialization of the two steps
    topo = get_machine("rtx3090-8x").topology()
    result = _run([JobSpec(1, "tinynet", 2, 0.0, 1),
                   JobSpec(2, "tinynet", 2, 0.0, 1)], topo)
    first, second = result.states
    assert first.ranks == (0, 1) and second.ranks == (2, 3)

    t_iso = _run([JobSpec(1, "tinynet", 2, 0.0, 1)],
                 get_machine("rtx3090-8x").topology()).states[0].finish_time
    assert first.finish_time == t_iso

    job1_busy = result.network.job_link_seconds(1)
    job2_busy = result.network.job_link_seconds(2)
    shared = {name for name in job1_busy
              if name in job2_busy and not name.startswith("gpu")}
    assert shared   # same root complex: the hostmem links are contended
    bottleneck = max(job1_busy[name] for name in shared)
    delay = second.finish_time - t_iso
    assert delay >= 0.9 * bottleneck          # serialization lower bound
    assert result.makespan <= 2.0 * t_iso     # full-serialization ceiling
    assert compute_metrics(result).mean_slowdown > 1.0


def test_deep_queue_has_nonzero_wait_and_everyone_finishes():
    topo = make_cluster("rtx3090-8x", 2)
    jobs = sample_fleet(40, seed=11, models=("resnet50",), worlds=(4, 8),
                        mean_interarrival=0.001)
    result = FleetSimulator(topo, jobs, policy="packed", seed=11).run()
    metrics = compute_metrics(result)
    assert metrics.completed == 40
    assert metrics.mean_queue_wait > 0
    assert metrics.p95_queue_wait >= metrics.mean_queue_wait
    assert 0 < metrics.fairness <= 1
    assert metrics.fleet_items_per_s > 0
    assert metrics.total_wire_bytes > 0
    # admissions never overlap on a GPU: replay the event log
    busy: dict[int, float] = {}
    ranks_of = {}
    for record in result.records:
        if record["event"] == "admit":
            for gpu in record["ranks"]:
                assert busy.get(gpu, 0.0) <= record["t"] + 1e-9
            ranks_of[record["job"]] = record["ranks"]
        elif record["event"] == "finish":
            for gpu in ranks_of[record["job"]]:
                busy[gpu] = record["t"]


def test_same_seed_logs_are_byte_identical():
    topo = make_cluster("rtx3090-8x", 2)

    def campaign():
        jobs = sample_fleet(16, seed=5)
        return FleetSimulator(topo, jobs, policy="spread", seed=5).run()

    assert campaign().log_bytes() == campaign().log_bytes()
    other = FleetSimulator(topo, sample_fleet(16, seed=6), policy="spread",
                           seed=6).run()
    assert campaign().log_bytes() != other.log_bytes()


def test_each_job_shape_is_planned_once_per_run(monkeypatch):
    planned = []
    plan_step = fleet.plan_step

    def counting_plan_step(*args, **kwargs):
        planned.append(args)
        return plan_step(*args, **kwargs)

    monkeypatch.setattr(fleet, "plan_step", counting_plan_step)
    jobs = [JobSpec(1, "tinynet", 2, 0.0, 2),
            JobSpec(2, "tinynet", 2, 0.0, 2),
            JobSpec(3, "tinynet", 4, 0.5, 1),        # world is not read
            JobSpec(4, "tinynet", 2, 0.0, 1, bits=8),
            JobSpec(5, "tinynet", 2, 0.0, 1, scheme="ring"),
            JobSpec(6, "tinynet", 2, 0.0, 1, batch_per_gpu=2),
            JobSpec(7, "tinynet", 2, 0.0, 1, method="nccl"),
            JobSpec(8, "tinynet", 1, 0.0, 1)]        # one rank: no plan
    simulator = FleetSimulator(make_cluster("rtx3090-8x", 2), jobs,
                               spec_library=LIB)
    result = simulator.run()
    plans = {job: runner.plan for job, runner in result.runners.items()}
    assert plans[1] is plans[2] is plans[3]
    assert len({id(plans[job]) for job in range(1, 8)}) == 5
    assert plans[8] == []
    assert len(planned) == 5
    # each run keeps its own table
    again = simulator.run()
    assert len(planned) == 10
    assert again.runners[1].plan is not plans[1]


@pytest.mark.parametrize("options", [{}, {"link_load_bin": 0.01},
                                     {"trace": True, "audit": True}],
                         ids=["plain", "binned", "traced"])
def test_a_second_run_of_one_simulator_repeats_the_first(options):
    # each run builds its own network: a run that replayed onto the last
    # run's link occupancy logged other step times
    simulator = FleetSimulator(make_cluster("rtx3090-8x", 2),
                               sample_fleet(16, seed=5), policy="packed",
                               seed=5, **options)
    first, second = simulator.run(), simulator.run()
    assert first.log_bytes() == second.log_bytes()
    assert first.network is not second.network
    assert first.metrics().to_dict() == second.metrics().to_dict()


def test_throttled_job_is_slower():
    topo = get_machine("rtx3090-8x").topology()
    free = _run([JobSpec(1, "tinynet", 2, 0.0, 1)], topo)
    throttled = _run([JobSpec(1, "tinynet", 2, 0.0, 1, throttle=0.25)],
                     get_machine("rtx3090-8x").topology())
    assert throttled.makespan > free.makespan
    # the throttle is scoped to the job and released at departure
    assert throttled.network.job_throttle(1) == 1.0


def test_adaptive_routing_fleet_completes_deterministically():
    topo = make_cluster("dgx1", 1)
    jobs = [JobSpec(1, "tinynet", 4, 0.0, 2),
            JobSpec(2, "tinynet", 4, 0.0, 2)]
    a = _run(list(jobs), make_cluster("dgx1", 1), routing="adaptive")
    b = _run(list(jobs), topo, routing="adaptive")
    assert a.log_bytes() == b.log_bytes()
    assert all(s.status == "done" for s in a.states)


@pytest.mark.parametrize("throttle_stride", [0, 2])
def test_slowdown_is_measured_on_the_network_the_job_would_have_had_alone(
        throttle_stride):
    # the isolated baseline keeps the fleet's routing and the job's own
    # throttle, so "faster than having the cluster to itself" cannot be
    # reported (static-routed, unthrottled baselines read 0.9985 here)
    from repro.sched.battery import apply_throttles
    from repro.sched.metrics import isolated_step_times

    jobs = sample_fleet(8, seed=102, models=("resnet50",), steps_range=(2, 5))
    if throttle_stride:
        jobs = apply_throttles(jobs, stride=throttle_stride)
    result = FleetSimulator(make_cluster("dgx1", 2), jobs, gpu="V100",
                            routing="adaptive", seed=102).run()
    metrics = compute_metrics(result)
    assert metrics.completed == 8
    for entry in metrics.per_job:
        assert entry["slowdown"] >= 1 - 1e-12, entry
    baselines = isolated_step_times(result)
    for job_id, runner in result.runners.items():
        # one probe constructor behind both isolated-replay paths
        probe = result.isolated_probe(job_id)
        assert probe.route_policy == "adaptive"
        assert probe.job_throttle(job_id) == runner.spec.throttle
        assert baselines[job_id] == runner.run_step(0.0, network=probe)[0]


def test_arrivals_respect_the_clock():
    # a job arriving later never starts earlier, even if GPUs are free
    topo = get_machine("rtx3090-8x").topology()
    result = _run([JobSpec(1, "tinynet", 2, 0.0, 1),
                   JobSpec(2, "tinynet", 2, 1.0, 1)], topo)
    late = result.states[1]
    assert late.admit_time == pytest.approx(1.0)
    assert late.queue_wait == pytest.approx(0.0)


def test_jain_fairness_and_percentile_helpers():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0.5, 0.5, 0.5]) == pytest.approx(1.0)
    assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        jain_fairness([-1.0])
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 100) == 2.0
    assert percentile([5.0], 95) == 5.0
    assert percentile([], 50) == 0.0   # no waits -> zero tail, not a crash
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_metrics_serialize_to_plain_json_types():
    import json

    topo = get_machine("rtx3090-8x").topology()
    result = _run([JobSpec(1, "tinynet", 2, 0.0, 2),
                   JobSpec(2, "tinynet", 2, 0.1, 2)], topo,
                  link_load_bin=0.001)
    metrics = compute_metrics(result)
    payload = json.loads(json.dumps(metrics.to_dict()))
    assert payload["n_jobs"] == 2 and payload["completed"] == 2
    assert metrics.link_timelines   # the binned link-load timelines
    assert metrics.link_load_bin == 0.001
