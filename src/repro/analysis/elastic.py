"""Elastic-membership certification battery (ELA001..ELA005).

Dynamic-analysis rules certifying the elastic autoscaling + spot-
preemption layer (:mod:`repro.faults.elastic` plus its trainer, engine
and adaptive-controller integration):

* **ELA001** — no ghost gradients: once a rank departs (graceful spot
  exit), no later step's membership contains it and its replica's
  weights never change again — departed machines neither contribute
  gradients nor consume reductions.
* **ELA002** — drain protocol: every warned rank either exits strictly
  before its reclaim deadline or is recorded as a missed drain exactly
  at the deadline (degrade-to-crash); on the stock campaigns the clean
  path must hold — zero missed drains.  The audit is the pure
  :func:`~repro.faults.elastic.check_drain_protocol` over the
  canonical log, so a tampered run is caught from the log alone.
* **ELA003** — convergence parity: elastically grown/shrunk worlds
  converge within ``LOSS_TOLERANCE`` of the fixed-world baseline, in
  both oracle and supervised (observation-driven) modes; supervised
  elastic recovery keeps ``counters.oracle_reads == 0`` (HLT003's
  guarantee survives elasticity).
* **ELA004** — respec feasibility: every bit-width respec the adaptive
  controller performed across the run — periodic or triggered by a
  composition change — is certified feasible in exact rational
  arithmetic (:func:`~repro.core.adaptive.certify_assignment`) at the
  effective (fleet-scaled) error budget it was computed under.
* **ELA005** — reproducibility: two same-seed runs of each elastic
  campaign produce byte-identical canonical event logs.

Like the HLT certifier, the battery reads the fault plan freely (it is
grading against ground truth); the supervised decision path alone is
barred from the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core import certify_assignment
from repro.faults import check_drain_protocol, make_campaign

from .findings import Finding
from .health import WORLD, CampaignRecords

__all__ = ["ELA_RULES", "ELASTIC_CAMPAIGNS", "LOSS_TOLERANCE",
           "verify_elastic", "verify_no_ghost_gradients",
           "verify_drain_protocol", "verify_convergence_parity",
           "verify_respec_feasibility", "verify_log_determinism"]

LOSS_TOLERANCE = 0.02

#: the stock elastic campaigns the battery certifies
ELASTIC_CAMPAIGNS = ("spot-churn", "autoscale-burst")

ELA_RULES: dict[str, str] = {
    "ELA001": "a departed rank contributed to or consumed a reduction",
    "ELA002": "a warned rank violated the drain protocol",
    "ELA003": "an elastic world diverged from the fixed-world baseline "
              "or read the fault-plan oracle",
    "ELA004": "a respec produced a bit-width plan that is not "
              "certifiably feasible at its error budget",
    "ELA005": "same-seed elastic campaigns were not byte-identical",
}


# -- ELA001: no ghost gradients ----------------------------------------------

def verify_no_ghost_gradients(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Departed ranks vanish from membership and stop updating."""
    records = records or CampaignRecords()
    findings: list[Finding] = []
    for name in ELASTIC_CAMPAIGNS:
        record = records.get(make_campaign(name, WORLD), supervised=False)
        trainer = record.trainer
        assert trainer.elastic is not None
        exit_steps = {detail["rank"]: step for step, detail
                      in record.runtime.records_of("spot_exit")}
        for step, members in trainer.elastic.history:
            for rank, exited_at in exit_steps.items():
                if step > exited_at and rank in members:
                    findings.append(Finding.semantic(
                        "elastic", "ELA001",
                        f"rank {rank} departed at step {exited_at} but "
                        f"is a member again at step {step}", name, WORLD))
        for rank, weights in record.frozen.items():
            current = dict(trainer.replicas[rank].named_parameters())
            for p_name, snapshot in weights.items():
                if not np.array_equal(snapshot, current[p_name].data):
                    findings.append(Finding.semantic(
                        "elastic", "ELA001",
                        f"departed rank {rank}'s parameter {p_name} "
                        f"changed after it left the world (a reduction "
                        f"reached a ghost)", name, WORLD))
                    break
    return findings


# -- ELA002: drain protocol ---------------------------------------------------

def verify_drain_protocol(records: CampaignRecords | None = None
                          ) -> list[Finding]:
    """Warned ranks drain before the deadline or degrade, never linger."""
    records = records or CampaignRecords()
    findings: list[Finding] = []
    for name in ELASTIC_CAMPAIGNS:
        plan = make_campaign(name, WORLD)
        runtime = records.get(plan, supervised=False).runtime
        for message in check_drain_protocol(plan, runtime.records):
            findings.append(Finding.semantic("elastic", "ELA002", message,
                                             name, WORLD))
        if runtime.counters.drain_missed:
            findings.append(Finding.semantic(
                "elastic", "ELA002",
                f"{runtime.counters.drain_missed} missed drain(s) on a "
                f"campaign whose clean drain path is reachable",
                name, WORLD))
    return findings


# -- ELA003: convergence parity ----------------------------------------------

def verify_convergence_parity(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Elastic worlds track the fixed-world loss; supervised stays blind."""
    records = records or CampaignRecords()
    findings: list[Finding] = []
    baseline = records.get(None, supervised=False).losses
    for name in ELASTIC_CAMPAIGNS:
        for supervised in (False, True):
            mode = "supervised" if supervised else "oracle"
            record = records.get(make_campaign(name, WORLD),
                                 supervised=supervised)
            losses = record.losses
            drift = abs(losses[-1] - baseline[-1])
            if not np.isfinite(losses[-1]) or drift > LOSS_TOLERANCE:
                findings.append(Finding.semantic(
                    "elastic", "ELA003",
                    f"{mode} final loss {losses[-1]:.6f} vs fixed-world "
                    f"{baseline[-1]:.6f} (drift {drift:.6f} > tolerance "
                    f"{LOSS_TOLERANCE})", name, WORLD))
            reads = record.runtime.counters.oracle_reads
            if supervised and reads:
                findings.append(Finding.semantic(
                    "elastic", "ELA003",
                    f"supervised elastic decision path issued "
                    f"{reads} oracle read(s)", name, WORLD))
    return findings


# -- ELA004: respec feasibility ----------------------------------------------

def verify_respec_feasibility(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Every respec across every composition certifies in exact arithmetic."""
    records = records or CampaignRecords()
    findings: list[Finding] = []
    for name in ELASTIC_CAMPAIGNS:
        record = records.get(make_campaign(name, WORLD), supervised=False,
                             adaptive=True)
        adaptive = record.trainer.adaptive
        assert adaptive is not None
        if not any(record.runtime.records_of("respec")):
            findings.append(Finding.semantic(
                "elastic", "ELA004",
                "no respec event was logged although the campaign "
                "changes the world composition", name, WORLD))
        for i, entry in enumerate(adaptive.respec_history):
            if not entry["assignment"]:
                continue
            if not certify_assignment(entry["stats"], entry["assignment"],
                                      alpha=entry["alpha"]):
                findings.append(Finding.semantic(
                    "elastic", "ELA004",
                    f"respec #{i} ({entry['trigger']}, world "
                    f"{entry['world']}) fails exact certification at "
                    f"alpha={entry['alpha']:.3f}", name, WORLD))
    return findings


# -- ELA005: reproducibility --------------------------------------------------

def verify_log_determinism(records: CampaignRecords | None = None
                           ) -> list[Finding]:
    """Two same-seed runs per campaign: byte-identical canonical logs."""
    records = records or CampaignRecords()
    findings: list[Finding] = []
    for name in ELASTIC_CAMPAIGNS:
        plan = make_campaign(name, WORLD)
        logs = [records.get(plan, repeat=i).runtime.log_bytes()
                for i in (0, 1)]
        if logs[0] != logs[1]:
            findings.append(Finding.semantic(
                "elastic", "ELA005",
                "two same-seed supervised elastic runs produced "
                "different canonical event logs", name, WORLD))
    return findings


def verify_elastic() -> list[Finding]:
    """Run the full ELA battery, training each distinct cell once."""
    records = CampaignRecords()
    return [*verify_no_ghost_gradients(records),
            *verify_drain_protocol(records),
            *verify_convergence_parity(records),
            *verify_respec_feasibility(records),
            *verify_log_determinism(records)]
