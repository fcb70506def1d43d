"""Job model for the fleet scheduler: specs, states, seeded workloads."""

import pytest

from repro.sched import (DEFAULT_FLEET_MODELS, JobSpec, JobState,
                         sample_fleet)


def test_jobspec_validation():
    good = JobSpec(1, "resnet50", 4, 0.0, 3)
    assert good.method == "cgx" and good.throttle == 1.0
    with pytest.raises(ValueError):   # 0 is the untagged trace lane
        JobSpec(0, "resnet50", 4, 0.0, 3)
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 0, 0.0, 3)
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 4, 0.0, 0)
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 4, -1.0, 3)
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 4, 0.0, 3, method="horovod")
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 4, 0.0, 3, throttle=0.0)
    with pytest.raises(ValueError):
        JobSpec(1, "resnet50", 4, 0.0, 3, throttle=1.5)


def test_build_config_cgx_vs_nccl():
    cgx = JobSpec(1, "resnet50", 4, 0.0, 3, bits=2, scheme="ring")
    config, mode = cgx.build_config()
    assert mode == "cgx"
    assert config.compression.method == "qsgd"
    assert config.compression.bits == 2
    assert config.scheme == "ring"

    nccl = JobSpec(2, "resnet50", 4, 0.0, 3, method="nccl")
    config, mode = nccl.build_config()
    assert mode == "fused"
    assert config.compression.method == "none"


def test_jobstate_progress_properties():
    state = JobState(JobSpec(1, "resnet50", 2, 1.0, 2))
    assert state.status == "queued"
    assert state.queue_wait is None and state.mean_step_time is None
    state.admit_time = 3.5
    state.step_durations = [0.2, 0.4]
    assert state.queue_wait == pytest.approx(2.5)
    assert state.mean_step_time == pytest.approx(0.3)
    assert state.to_dict()["spec"]["job_id"] == 1


def test_sample_fleet_is_seeded_and_reproducible():
    a = sample_fleet(50, seed=3)
    b = sample_fleet(50, seed=3)
    assert a == b
    c = sample_fleet(50, seed=4)
    assert a != c


def test_sample_fleet_population_shape():
    jobs = sample_fleet(120, seed=1)
    assert [j.job_id for j in jobs] == list(range(1, 121))
    # arrivals are a strictly increasing Poisson process
    arrivals = [j.arrival for j in jobs]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0
    assert {j.model for j in jobs} == set(DEFAULT_FLEET_MODELS)
    assert {j.world for j in jobs} <= {2, 4, 8}
    methods = {j.method for j in jobs}
    assert methods == {"cgx", "nccl"}   # the mixed-method fleet
    assert all(2 <= j.steps <= 5 for j in jobs)


def test_sample_fleet_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_fleet(0)
    with pytest.raises(KeyError):
        sample_fleet(5, models=("not_a_model",))


@pytest.mark.parametrize("mean", [0.0, -0.05, float("nan")])
def test_sample_fleet_rejects_a_non_positive_mean_interarrival(mean):
    # 0 used to divide by zero, and a negative mean ran arrivals backwards
    with pytest.raises(ValueError, match="mean_interarrival"):
        sample_fleet(5, mean_interarrival=mean)
