"""Golden replay of the fault runtime: every chaos campaign, under both
recovery modes, with and without the adaptive controller, trains
bit-identically to the recorded parent.

``tests/fixtures/fault_golden.json`` was recorded on a clean checkout of
eb1ce49 (before the detector, retry and quorum settings became module
constants) by running :func:`replay_all` with that tree on
``PYTHONPATH``.  It pins, for each of the five campaigns x oracle /
supervised (supervised with a durable :class:`CheckpointStore`) x plain /
adaptive (:class:`AdaptiveController`, period 5) on ``mlp`` at world 4
for 20 steps: the sha256 of the canonical event log, the fault
counters, each step's loss as ``float.hex()`` and the sha256 of every
replica's final parameter bytes.  Two timed cells run ``simulate_step``
on resnet50 over a :class:`FaultyNetwork` on rtx3090-8x for steps 1-3 of
``lossy-link`` and ``straggler`` and pin each ``step_time.hex()`` plus
the runtime's log and counters.

Re-record with ``python tests/fixtures/record_fault_golden.py <clean
checkout of the old tree>``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cluster import get_machine
from repro.compression import CompressionSpec
from repro.core import AdaptiveController, CGXConfig
from repro.faults import (CAMPAIGNS, CheckpointStore, FaultyNetwork,
                          PlanRuntime, make_campaign)
from repro.models import build_spec
from repro.training import RECIPES, perf
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer

GOLDEN = Path(__file__).parent / "fixtures" / "fault_golden.json"
FAMILY = "mlp"
WORLD = 4
STEPS = 20
SEED = 0
MODES = ("oracle", "supervised")
FLAVOURS = ("plain", "adaptive")
TIMED_CAMPAIGNS = ("lossy-link", "straggler")
TIMED_STEPS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(bucket: int) -> CGXConfig:
    config = CGXConfig.cgx_default(bucket)
    config.compression = CompressionSpec("qsgd", bits=4, bucket_size=bucket)
    return config


def replay_trainer(campaign: str, mode: str, flavour: str) -> dict:
    recipe = RECIPES[FAMILY]
    config = _config(recipe.bucket_size)
    adaptive = (AdaptiveController(config, period=5)
                if flavour == "adaptive" else None)
    task = make_task(FAMILY, batch_size=recipe.batch_size, **recipe.kwargs())
    with tempfile.TemporaryDirectory() as directory:
        store = (CheckpointStore(directory) if mode == "supervised"
                 else None)
        trainer = DataParallelTrainer(
            task, world_size=WORLD, config=config, recipe=recipe, seed=SEED,
            adaptive=adaptive,
            fault_plan=make_campaign(campaign, world=WORLD, seed=SEED),
            supervised=mode == "supervised", store=store)
        losses = [trainer.train_step().hex() for _ in range(STEPS)]
    runtime = trainer.fault_runtime
    params = b"".join(param.data.tobytes()
                      for replica in trainer.replicas
                      for _, param in replica.named_parameters())
    return {"log": _sha(runtime.log_bytes()),
            "counters": runtime.counters.to_dict(),
            "losses": losses,
            "params": _sha(params)}


def replay_timed(campaign: str) -> dict:
    machine, spec = get_machine("rtx3090-8x"), build_spec("resnet50")
    topology = machine.topology()
    runtime = PlanRuntime(make_campaign(campaign, world=machine.n_gpus,
                                        seed=SEED))
    times = []
    for step in TIMED_STEPS:
        runtime.advance(step)
        timing = perf.simulate_step(
            spec, machine.gpu, topology, CGXConfig.cgx_default(),
            network=FaultyNetwork(topology, "shm", runtime))
        times.append(timing.step_time.hex())
    return {"step_times": times,
            "counters": runtime.counters.to_dict(),
            "log": _sha(runtime.log_bytes())}


def _cells():
    return [(c, m, f) for c in sorted(CAMPAIGNS) for m in MODES
            for f in FLAVOURS]


def replay_all() -> dict:
    """Everything the fixture records (the recorder dumps this as JSON)."""
    record = {"|".join(cell): replay_trainer(*cell) for cell in _cells()}
    for campaign in TIMED_CAMPAIGNS:
        record[f"timed|{campaign}"] = replay_timed(campaign)
    return record


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cell", _cells(), ids="|".join)
def test_campaign_training_replays_the_parent(cell, recorded):
    assert replay_trainer(*cell) == recorded["|".join(cell)]


@pytest.mark.parametrize("campaign", TIMED_CAMPAIGNS)
def test_timed_faulty_steps_replay_the_parent(campaign, recorded):
    assert replay_timed(campaign) == recorded[f"timed|{campaign}"]
