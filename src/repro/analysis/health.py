"""Health-layer certification battery (HLT001..HLT005).

Certifies the phi-accrual failure detector, the observation-driven
supervisor and the durable checkpoint store (:mod:`repro.faults.health`,
:mod:`repro.faults.store`) on short supervised mlp/world-4 campaigns.
The certifier reads the fault plan freely (it grades against ground
truth); only the *decision path* is barred from the oracle, which
``counters.oracle_reads`` measures.  The rules:

"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core import AdaptiveController
from repro.core.config import CGXConfig
from repro.faults import (CheckpointCorrupt, CheckpointStore, FaultPlan,
                          make_campaign, straggler)
from repro.faults.plan import PlanRuntime
from repro.training.recipes import get_recipe
from repro.training.tasks import make_task
from repro.training.trainer import DataParallelTrainer

from .findings import CellFindings, Finding, rule_table

__all__ = ["HLT_RULES", "CRASH_LATENCY_BOUND", "STRAGGLER_LATENCY_BOUND",
           "REJOIN_LATENCY_BOUND", "LOSS_TOLERANCE", "CampaignRecord",
           "CampaignRecords", "verify_health", "verify_detector_soundness",
           "verify_detection_latency", "verify_supervised_recovery",
           "verify_resume_determinism", "verify_store_crash_safety"]

#: certified bounds (steps) and the convergence tolerance shared with
#: the oracle-driven PR 3 battery
CRASH_LATENCY_BOUND = 3
STRAGGLER_LATENCY_BOUND = 4
REJOIN_LATENCY_BOUND = 3
LOSS_TOLERANCE = 0.02

FAMILY = "mlp"
WORLD = 4
STEPS = 20

HLT_RULES: dict[str, str] = {
    "HLT001": "detector raised a false alarm on a crash-free campaign",
    "HLT002": "failure detection latency exceeded the certified bound",
    "HLT003": "supervised recovery diverged from the oracle baseline "
              "or read the fault-plan oracle",
    "HLT004": "resumed training was not bit-identical",
    "HLT005": "checkpoint store failed to survive a torn or corrupt file",
}
__doc__ = rule_table(__doc__, HLT_RULES)


# -- the campaign-trainer runner (shared with the ELA battery) ---------------

@dataclass
class CampaignRecord:
    """What one campaign cell leaves behind for the pure checks."""

    trainer: DataParallelTrainer    # in its final state
    losses: list[float]             # one per step
    #: weights of each departed replica, copied the step it left (ELA001)
    frozen: dict[int, dict[str, np.ndarray]]

    @property
    def runtime(self) -> PlanRuntime:
        assert self.trainer.fault_runtime is not None
        return self.trainer.fault_runtime


class CampaignRecords:
    """The one mlp/world-4 campaign trainer behind the HLT and ELA checks.

    :meth:`get` trains a ``(plan, supervised, adaptive)`` cell for
    :data:`STEPS` steps once and memoizes its record, so checks handed
    one shared instance — a whole battery — train each distinct cell
    once.  A check called without one makes its own, i.e. still runs
    standalone.  ``repeat`` names an independent same-seed rerun (the
    determinism rules compare two).
    """

    def __init__(self) -> None:
        self._records: dict[tuple, CampaignRecord] = {}

    @staticmethod
    def trainer(plan: FaultPlan | None, supervised: bool = True,
                adaptive: bool = False,
                store: CheckpointStore | None = None) -> DataParallelTrainer:
        recipe = get_recipe(FAMILY)
        task = make_task(FAMILY, batch_size=recipe.batch_size,
                         **recipe.kwargs())
        controller = AdaptiveController(CGXConfig.cgx_default(128),
                                        period=5) if adaptive else None
        return DataParallelTrainer(
            task, world_size=WORLD, config=CGXConfig.cgx_default(128),
            recipe=recipe, seed=0, fault_plan=plan, supervised=supervised,
            adaptive=controller, store=store)

    def get(self, plan: FaultPlan | None, supervised: bool = True,
            adaptive: bool = False, repeat: int = 0) -> CampaignRecord:
        key = (plan, supervised, adaptive, repeat)
        if key not in self._records:
            trainer = self.trainer(plan, supervised, adaptive)
            record = CampaignRecord(trainer, [], {})
            for _ in range(STEPS):
                record.losses.append(trainer.train_step())
                departed = trainer.elastic.departed if trainer.elastic else ()
                for rank in sorted(set(departed) - set(record.frozen)):
                    if rank >= len(trainer.replicas):
                        continue   # warned before provisioning: never built
                    record.frozen[rank] = {
                        name: param.data.copy() for name, param in
                        trainer.replicas[rank].named_parameters()}
            self._records[key] = record
        return self._records[key]


def _run(trainer: DataParallelTrainer, steps: int) -> list[float]:
    return [trainer.train_step() for _ in range(steps)]


# -- HLT001: zero false positives -------------------------------------------

def verify_detector_soundness(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """No alarms on campaigns that inject nothing alarm-worthy."""
    records = records or CampaignRecords()
    out = CellFindings("health", HLT_RULES, world=WORLD)
    for name, plan in (("fault-free", None),
                       ("lossy-link", make_campaign("lossy-link", WORLD))):
        counters = records.get(plan).runtime.counters
        for counter in ("suspected_crashes", "false_suspicions",
                        "straggler_demotions", "escalations"):
            value = getattr(counters, counter)
            if value:
                out.emit("HLT001",
                         f"{counter}={value} after {STEPS} supervised steps "
                         f"with no crash or over-budget straggler injected",
                         name)
    return out


# -- HLT002: bounded detection latency ---------------------------------------

def verify_detection_latency(records: CampaignRecords | None = None
                             ) -> list[Finding]:
    """Crash, rejoin and straggler events noticed within the bounds."""
    records = records or CampaignRecords()
    out = CellFindings("health", HLT_RULES, world=WORLD)
    late = partial(out.emit, "HLT002", scheme="crash-rejoin")

    # crash at step 4, rejoin at step 9 (stock campaign, rank 3)
    record = records.get(make_campaign("crash-rejoin", WORLD))
    suspected = record.runtime.first_step("suspect_crash", WORLD - 1)
    if suspected is None:
        late(f"rank {WORLD - 1} crash at step 4 never suspected in "
             f"{STEPS} steps")
    elif suspected - 4 > CRASH_LATENCY_BOUND:
        late(f"crash at step 4 suspected at step {suspected} "
             f"(latency {suspected - 4} > bound {CRASH_LATENCY_BOUND})")
    admitted = record.runtime.first_step("admit_rejoin", WORLD - 1)
    if admitted is None:
        late(f"rank {WORLD - 1} rejoin at step 9 never admitted in "
             f"{STEPS} steps")
    elif admitted - 9 > REJOIN_LATENCY_BOUND:
        late(f"rejoin at step 9 admitted at step {admitted} "
             f"(latency {admitted - 9} > bound {REJOIN_LATENCY_BOUND})")

    # persistent over-budget straggler from step 4 on rank 2
    hard = FaultPlan("straggler-hard", WORLD, 0,
                     (straggler(4, None, rank=2, factor=2.5),))
    demoted = records.get(hard).runtime.first_step("demote_straggler", 2)
    late = partial(out.emit, "HLT002", scheme="straggler-hard")
    if demoted is None:
        late(f"2.5x straggler from step 4 never demoted in {STEPS} steps")
    elif demoted - 4 > STRAGGLER_LATENCY_BOUND:
        late(f"straggler onset at step 4 demoted at step {demoted} "
             f"(latency {demoted - 4} > bound {STRAGGLER_LATENCY_BOUND})")
    return out


# -- HLT003: oracle-free recovery parity -------------------------------------

def verify_supervised_recovery(records: CampaignRecords | None = None
                               ) -> list[Finding]:
    """Supervised convergence matches the oracle path, without the oracle."""
    records = records or CampaignRecords()
    out = CellFindings("health", HLT_RULES, world=WORLD)
    for name in ("crash-rejoin", "straggler"):
        plan = make_campaign(name, WORLD)
        sup = records.get(plan)
        sup_loss = sup.losses[-1]
        oracle_loss = records.get(plan, supervised=False).losses[-1]
        reads = sup.runtime.counters.oracle_reads
        if reads:
            out.emit("HLT003",
                     f"supervised decision path issued {reads} StepFaults "
                     f"oracle read(s); recovery must use observations only",
                     name)
        drift = abs(sup_loss - oracle_loss)
        if not np.isfinite(sup_loss) or drift > LOSS_TOLERANCE:
            out.emit("HLT003",
                     f"supervised final loss {sup_loss:.6f} vs oracle "
                     f"{oracle_loss:.6f} (drift {drift:.6f} > "
                     f"tolerance {LOSS_TOLERANCE})", name)
    return out


# -- HLT004: resume determinism ----------------------------------------------

def verify_resume_determinism(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """A store-restored fresh trainer replays training bit-identically."""
    records = records or CampaignRecords()
    out = CellFindings("health", HLT_RULES, "fault-free", WORLD)
    differs = partial(out.emit, "HLT004")

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, keep=3)
        ref = records.trainer(None, store=store)
        ref_losses = _run(ref, 14)

        loaded = store.load_latest()
        if loaded is None:
            differs("supervised run with a store attached published no "
                    "checkpoints")
            return out
        step, state = loaded
        resumed = records.trainer(None)
        resumed.restore_state(state)
        resumed_losses = _run(resumed, 14 - step)
        if resumed_losses != ref_losses[step:]:
            differs(f"losses after restoring step {step} differ from the "
                    f"uninterrupted run (resume is not bit-identical)")
        for (name, a), b in zip(
                ref.replicas[0].named_parameters(),
                (p for _, p in resumed.replicas[0].named_parameters())):
            if not np.array_equal(a.data, b.data):
                differs(f"parameter {name} differs after resumed training")
                break

    # two same-seed supervised chaos runs: byte-identical event logs
    plan = make_campaign("crash-rejoin", WORLD)
    logs = [records.get(plan, repeat=i).runtime.log_bytes() for i in (0, 1)]
    if logs[0] != logs[1]:
        out.emit("HLT004", "two same-seed supervised runs produced "
                           "different event logs", "crash-rejoin")
    return out


# -- HLT005: store crash-safety ----------------------------------------------

def verify_store_crash_safety() -> list[Finding]:
    """Torn and corrupt checkpoint files are detected and survived."""
    out = CellFindings("health", HLT_RULES, "fault-free", WORLD)
    unsafe = partial(out.emit, "HLT005")

    trainer = CampaignRecords.trainer
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, keep=3)
        _run(trainer(None, store=store), 10)   # checkpoints at steps 5 and 10
        steps = store.steps()
        if len(steps) < 2:
            unsafe(f"expected >= 2 checkpoints, store has {steps}")
            return out
        older, newest = steps[-2], steps[-1]

        # the reference continuation from the older checkpoint
        base = trainer(None)
        base.restore_state(store.load(older))
        base_losses = _run(base, 4)

        # 1) torn write: truncate the newest published checkpoint
        path = store.path_for(newest)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size // 2)
        detected: list[int] = []
        loaded = store.load_latest(
            on_corrupt=lambda step, exc: detected.append(step))
        if loaded is None or loaded[0] != older or detected != [newest]:
            unsafe(f"truncated checkpoint {newest} not detected with "
                   f"fallback to {older} (got {loaded and loaded[0]}, "
                   f"detected={detected})")
        else:
            resumed = trainer(None)
            resumed.restore_state(loaded[1])
            if _run(resumed, 4) != base_losses:
                unsafe(f"training resumed from fallback checkpoint {older} "
                       f"was not bit-identical to a direct restore")

        # 2) garbled payload byte in the (intact) older checkpoint
        path = store.path_for(older)
        raw = bytearray(open(path, "rb").read())
        raw[-20] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            store.load(older)
            unsafe(f"garbled payload byte in checkpoint {older} not "
                   f"detected by CRC validation")
        except CheckpointCorrupt:
            pass

        # 3) a stray .tmp from a killed writer must never be loaded and
        #    must be swept by the next save
        stray = os.path.join(tmp, "ckpt-99999999.ckpt.tmp")
        with open(stray, "wb") as fh:
            fh.write(b"half-written garbage")
        if 99999999 in store.steps():
            unsafe("a .tmp staging file is visible as a checkpoint")
        store.save({"x": np.zeros(4, dtype=np.float32)}, 12)
        if os.path.exists(stray):
            unsafe("stray .tmp from a killed writer survived the next save")
    return out


def verify_health() -> list[Finding]:
    """Run the full HLT battery, training each distinct cell once."""
    records = CampaignRecords()
    return [*verify_detector_soundness(records),
            *verify_detection_latency(records),
            *verify_supervised_recovery(records),
            *verify_resume_determinism(records),
            *verify_store_crash_safety()]
