"""Elastic-membership certification battery (ELA001..ELA005).

Certifies the elastic autoscaling + spot-preemption layer
(:mod:`repro.faults.elastic` plus its trainer, engine and
adaptive-controller integration) over the stock elastic campaigns, in
oracle and supervised modes.  Like HLT, the battery reads the fault
plan freely; the supervised decision path alone is barred from the
oracle.  The rules:

"""

from __future__ import annotations

import numpy as np

from repro.core import certify_assignment
from repro.faults import check_drain_protocol, make_campaign

from .findings import CellFindings, Finding, rule_table
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
__doc__ = rule_table(__doc__, ELA_RULES)


# -- ELA001: no ghost gradients ----------------------------------------------

def verify_no_ghost_gradients(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Departed ranks vanish from membership and stop updating."""
    records = records or CampaignRecords()
    out = CellFindings("elastic", ELA_RULES, world=WORLD)
    for name in ELASTIC_CAMPAIGNS:
        record = records.get(make_campaign(name, WORLD), supervised=False)
        trainer = record.trainer
        assert trainer.elastic is not None
        exit_steps = {detail["rank"]: step for step, detail
                      in record.runtime.records_of("spot_exit")}
        for step, members in trainer.elastic.history:
            for rank, exited_at in exit_steps.items():
                if step > exited_at and rank in members:
                    out.emit("ELA001",
                             f"rank {rank} departed at step {exited_at} but "
                             f"is a member again at step {step}", name)
        for rank, weights in record.frozen.items():
            current = dict(trainer.replicas[rank].named_parameters())
            for p_name, snapshot in weights.items():
                if not np.array_equal(snapshot, current[p_name].data):
                    out.emit("ELA001",
                             f"departed rank {rank}'s parameter {p_name} "
                             f"changed after it left the world (a reduction "
                             f"reached a ghost)", name)
                    break
    return out


# -- ELA002: drain protocol ---------------------------------------------------

def verify_drain_protocol(records: CampaignRecords | None = None
                          ) -> list[Finding]:
    """Warned ranks drain before the deadline or degrade, never linger."""
    records = records or CampaignRecords()
    out = CellFindings("elastic", ELA_RULES, world=WORLD)
    for name in ELASTIC_CAMPAIGNS:
        plan = make_campaign(name, WORLD)
        runtime = records.get(plan, supervised=False).runtime
        for message in check_drain_protocol(plan, runtime.records):
            out.emit("ELA002", message, name)
        if runtime.counters.drain_missed:
            out.emit("ELA002",
                     f"{runtime.counters.drain_missed} missed drain(s) on a "
                     f"campaign whose clean drain path is reachable", name)
    return out


# -- ELA003: convergence parity ----------------------------------------------

def verify_convergence_parity(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Elastic worlds track the fixed-world loss; supervised stays blind."""
    records = records or CampaignRecords()
    out = CellFindings("elastic", ELA_RULES, world=WORLD)
    baseline = records.get(None, supervised=False).losses
    for name in ELASTIC_CAMPAIGNS:
        for supervised in (False, True):
            mode = "supervised" if supervised else "oracle"
            record = records.get(make_campaign(name, WORLD),
                                 supervised=supervised)
            losses = record.losses
            drift = abs(losses[-1] - baseline[-1])
            if not np.isfinite(losses[-1]) or drift > LOSS_TOLERANCE:
                out.emit("ELA003",
                         f"{mode} final loss {losses[-1]:.6f} vs fixed-world "
                         f"{baseline[-1]:.6f} (drift {drift:.6f} > tolerance "
                         f"{LOSS_TOLERANCE})", name)
            reads = record.runtime.counters.oracle_reads
            if supervised and reads:
                out.emit("ELA003", f"supervised elastic decision path issued "
                                   f"{reads} oracle read(s)", name)
    return out


# -- ELA004: respec feasibility ----------------------------------------------

def verify_respec_feasibility(records: CampaignRecords | None = None
                              ) -> list[Finding]:
    """Every respec across every composition certifies in exact arithmetic."""
    records = records or CampaignRecords()
    out = CellFindings("elastic", ELA_RULES, world=WORLD)
    for name in ELASTIC_CAMPAIGNS:
        record = records.get(make_campaign(name, WORLD), supervised=False,
                             adaptive=True)
        adaptive = record.trainer.adaptive
        assert adaptive is not None
        if not any(record.runtime.records_of("respec")):
            out.emit("ELA004",
                     "no respec event was logged although the campaign "
                     "changes the world composition", name)
        for i, entry in enumerate(adaptive.respec_history):
            if not entry["assignment"]:
                continue
            if not certify_assignment(entry["stats"], entry["assignment"],
                                      alpha=entry["alpha"]):
                out.emit("ELA004",
                         f"respec #{i} ({entry['trigger']}, world "
                         f"{entry['world']}) fails exact certification at "
                         f"alpha={entry['alpha']:.3f}", name)
    return out


# -- ELA005: reproducibility --------------------------------------------------

def verify_log_determinism(records: CampaignRecords | None = None
                           ) -> list[Finding]:
    """Two same-seed runs per campaign: byte-identical canonical logs."""
    records = records or CampaignRecords()
    out = CellFindings("elastic", ELA_RULES, world=WORLD)
    for name in ELASTIC_CAMPAIGNS:
        plan = make_campaign(name, WORLD)
        logs = [records.get(plan, repeat=i).runtime.log_bytes()
                for i in (0, 1)]
        if logs[0] != logs[1]:
            out.emit("ELA005",
                     "two same-seed supervised elastic runs produced "
                     "different canonical event logs", name)
    return out


def verify_elastic() -> list[Finding]:
    """Run the full ELA battery, training each distinct cell once."""
    records = CampaignRecords()
    return [*verify_no_ghost_gradients(records),
            *verify_drain_protocol(records),
            *verify_convergence_parity(records),
            *verify_respec_feasibility(records),
            *verify_log_determinism(records)]
