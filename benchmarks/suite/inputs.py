"""Seeded input generators: everything the programs under test receive.

Every generator takes the run's ``--seed`` (and ``--scale``, 1.0 for real
runs, ~0.05 for the smoke test).  The seed varies *values and orderings*
only — tensor values, data/model seeds, which job lands on which arrival
slot, the order cells are evaluated in — never the amount of work in an
op, because the driver compares runs made with different seeds.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

__all__ = ["WORLD", "gradient_inventory", "worker_gradients", "TrainSpec",
           "train_specs", "SWEEP_MODELS", "SWEEP_MACHINES", "SWEEP_GPUS",
           "OVERLAP_MODELS", "sweep_models", "shuffled", "fleet_jobs",
           "FLEET_CAMPAIGNS", "certify_cells", "SCHED_MAX_JOBS",
           "SCHED_LARGE_CELL"]

WORLD = 4


# -- reduce_qsgd ---------------------------------------------------------------

def gradient_inventory(scale: float = 1.0) -> list[tuple[str, tuple[int, ...]]]:
    """The transformer-shaped gradient inventory, forward order.

    At scale 1: a 4000x96 embedding, six blocks (layer norms, 192x576 qkv,
    192x192 projection, 192x768 and 768x192 MLP matrices, their biases)
    and a 96x4000 head — 74 tensors, 3,437,184 elements.
    """
    vocab = max(64, int(4000 * scale))
    blocks = max(1, round(6 * scale))
    dim, width = 96, 192
    inventory: list[tuple[str, tuple[int, ...]]] = [("embed.weight", (vocab, dim))]
    for b in range(blocks):
        p = f"block{b}."
        inventory += [
            (p + "ln1.weight", (width,)), (p + "ln1.bias", (width,)),
            (p + "attn.qkv.weight", (width, 3 * width)),
            (p + "attn.qkv.bias", (3 * width,)),
            (p + "attn.proj.weight", (width, width)),
            (p + "attn.proj.bias", (width,)),
            (p + "ln2.weight", (width,)), (p + "ln2.bias", (width,)),
            (p + "mlp.fc1.weight", (width, 4 * width)),
            (p + "mlp.fc1.bias", (4 * width,)),
            (p + "mlp.fc2.weight", (4 * width, width)),
            (p + "mlp.fc2.bias", (width,)),
        ]
    inventory.append(("head.weight", (dim, vocab)))
    return inventory


def worker_gradients(seed: int, inventory, world: int = WORLD
                     ) -> list[dict[str, np.ndarray]]:
    """One {name: fp32 gradient} dict per worker, values from the seed."""
    rng = np.random.default_rng([seed, 101])
    return [{name: 0.01 * rng.standard_normal(shape, dtype=np.float32)
             for name, shape in inventory}
            for _ in range(world)]


# -- train_steps ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrainSpec:
    """One trainer configuration of the time-balanced mix."""

    name: str
    family: str          # "mlp" | "bert"
    compression: str     # "none" | "qsgd4" | "topk_ef"
    overlap: bool = False
    lossy: bool = False
    steps_per_round: int = 40


def train_specs(scale: float = 1.0) -> list[TrainSpec]:
    """Per round 40 mlp steps per mlp config and 3 bert steps per bert
    config — the issue's 400:30 mix, cut into rounds."""
    mlp = max(2, int(40 * scale))
    bert = max(1, int(3 * scale))
    return [
        TrainSpec("mlp_none", "mlp", "none", steps_per_round=mlp),
        TrainSpec("mlp_qsgd4", "mlp", "qsgd4", steps_per_round=mlp),
        TrainSpec("mlp_qsgd4_overlap", "mlp", "qsgd4", overlap=True,
                  steps_per_round=mlp),
        TrainSpec("mlp_topk_ef", "mlp", "topk_ef", steps_per_round=mlp),
        TrainSpec("mlp_qsgd4_lossy", "mlp", "qsgd4", lossy=True,
                  steps_per_round=mlp),
        TrainSpec("bert_qsgd4", "bert", "qsgd4", steps_per_round=bert),
        TrainSpec("bert_qsgd4_overlap", "bert", "qsgd4", overlap=True,
                  steps_per_round=bert),
    ]


# -- paper_sweep ---------------------------------------------------------------

SWEEP_MODELS = ("resnet50", "vgg16", "vit", "bert", "transformer_xl", "gpt2")
SWEEP_MACHINES = ("rtx3090-8x", "rtx2080-8x", "dgx1", "a6000-8x")
SWEEP_GPUS = (2, 4, 8)
OVERLAP_MODELS = ("resnet50", "vgg16", "transformer_xl")


def sweep_models(scale: float = 1.0) -> tuple[str, ...]:
    return SWEEP_MODELS[:max(1, round(len(SWEEP_MODELS) * scale))]


def shuffled(items, seed: int, tag: int) -> list:
    """``items`` in a seed-determined order (the grid itself is the
    paper's, so the seed only permutes evaluation order)."""
    items = list(items)
    random.Random(seed * 1_000_003 + tag).shuffle(items)
    return items


# -- fleet_200 -----------------------------------------------------------------

#: the population is the legacy fleet sweep's (bench_fleet_scheduler.py)
FLEET_POPULATION_SEED = 7
FLEET_NODES = 4
#: name -> (machine, gpu, placement policy, routing)
FLEET_CAMPAIGNS = {
    "packed": ("rtx3090-8x", "RTX3090", "packed", "static"),
    "spread": ("rtx3090-8x", "RTX3090", "spread", "static"),
    "numa": ("rtx3090-8x", "RTX3090", "numa", "static"),
    "adaptive": ("dgx1", "V100", "packed", "adaptive"),
}


def fleet_jobs(seed: int, scale: float = 1.0):
    """The 200-job fleet: a fixed population, seed-permuted over the
    arrival slots.

    ``sample_fleet``'s own seed changes the model/world/steps mix and with
    it the transfers per job-step (330-475 steps/s across seeds 0-5), so
    the population is drawn once and ``--seed`` decides which job arrives
    when: same transfers and job-steps for every seed, different queueing,
    placement and contention.
    """
    from repro.sched import sample_fleet

    n_jobs = max(8, int(200 * scale))
    population = sample_fleet(n_jobs, seed=FLEET_POPULATION_SEED,
                              worlds=(2, 4, 8))
    order = shuffled(range(n_jobs), seed, tag=4)
    return [dataclasses.replace(population[source], job_id=slot + 1,
                                arrival=population[slot].arrival)
            for slot, source in enumerate(order)]


# -- certify -------------------------------------------------------------------

#: sched battery cells certified per round: every cell up to this many jobs ...
SCHED_MAX_JOBS = 6
#: ... plus this one large cell, where isolated-replay memoisation must show
SCHED_LARGE_CELL = "scale-32"


def certify_cells(scale: float = 1.0):
    """The ``fleet_cases()`` cells the certify workload replays."""
    from repro.sched import fleet_cases

    cells = [case for case in fleet_cases()
             if case.n_jobs <= SCHED_MAX_JOBS
             or (scale >= 1.0 and case.name == SCHED_LARGE_CELL)]
    if scale < 1.0:
        cells = [case for case in cells if case.n_jobs <= 4][:2]
    return cells
