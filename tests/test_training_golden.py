"""Golden replay of the training path: what a trained step computes.

``tests/fixtures/training_golden.json`` was recorded on a clean checkout
of e64506b (before ``repro.nn`` stopped promoting transformer activations
to float64) by running :func:`replay_all` with that tree on
``PYTHONPATH``.  Every cell is a ``DataParallelTrainer`` at world 4 built
the way the benchmark suite builds its ``train_steps`` trainers (recipe
hyperparameters and model sizes, batch 8 per worker), trained
:data:`STEPS` steps.

* ``EXACT`` cells (the MLP and the two CNNs, which use neither GELU nor
  attention) replay bit-for-bit: the ``float.hex()`` of every step loss
  and the sha256 of every replica's final parameter bytes.
* ``CLOSE`` cells (the four transformer families) compute in float32
  since then, where the recording ran their activations in float64; each
  step loss must match within :data:`CLOSE_RTOL` relative error.

Re-record only for a deliberate change of a trained number, from a clean
checkout of the old tree, never from the working tree being changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compression import CompressionSpec
from repro.core import CGXConfig
from repro.faults import make_campaign
from repro.training import DataParallelTrainer, get_recipe, make_task

GOLDEN = Path(__file__).parent / "fixtures" / "training_golden.json"
SEED = 0
WORLD = 4
STEPS = 5
BATCH = 8
CLOSE_RTOL = 1e-4
#: cell -> (family, compression, lossy-link plan)
EXACT = {
    "mlp|none": ("mlp", "none", False),
    "mlp|qsgd4": ("mlp", "qsgd4", False),
    "mlp|topk_ef": ("mlp", "topk_ef", False),
    "mlp|qsgd4|lossy-link": ("mlp", "qsgd4", True),
    "resnet50|qsgd4": ("resnet50", "qsgd4", False),
    "vgg16|qsgd4": ("vgg16", "qsgd4", False),
}
CLOSE = {f"{family}|qsgd4": (family, "qsgd4", False)
         for family in ("vit", "transformer_xl", "gpt2", "bert")}


def _trainer(family: str, compression: str, lossy: bool) -> DataParallelTrainer:
    recipe = get_recipe(family)
    task = make_task(family, batch_size=BATCH, data_seed=SEED, **recipe.kwargs())
    config = {
        "none": lambda: CGXConfig(compression=CompressionSpec("none")),
        "qsgd4": lambda: CGXConfig.cgx_default(recipe.bucket_size),
        "topk_ef": lambda: CGXConfig(compression=CompressionSpec(
            "topk", density=0.05, error_feedback=True)),
    }[compression]()
    plan = make_campaign("lossy-link", world=WORLD, seed=SEED) if lossy else None
    return DataParallelTrainer(task, world_size=WORLD, config=config,
                               recipe=recipe, seed=SEED, fault_plan=plan)


def replay_cell(family: str, compression: str, lossy: bool) -> dict:
    trainer = _trainer(family, compression, lossy)
    losses = [float(trainer.train_step()).hex() for _ in range(STEPS)]
    params = hashlib.sha256()
    for replica in trainer.replicas:
        for _name, param in replica.named_parameters():
            params.update(param.data.tobytes())
    return {"losses": losses, "params": params.hexdigest()}


def replay_all() -> dict:
    """Everything the fixture records (the recorder dumps this as JSON)."""
    return {name: replay_cell(*cell) for name, cell in {**EXACT, **CLOSE}.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", EXACT)
def test_mlp_and_cnn_training_replays_bit_for_bit(name, recorded):
    assert replay_cell(*EXACT[name]) == recorded[name]


@pytest.mark.parametrize("name", CLOSE)
def test_transformer_training_replays_within_float32_rounding(name, recorded):
    losses = [float.fromhex(h) for h in replay_cell(*CLOSE[name])["losses"]]
    want = [float.fromhex(h) for h in recorded[name]["losses"]]
    assert losses == pytest.approx(want, rel=CLOSE_RTOL, abs=0.0)
