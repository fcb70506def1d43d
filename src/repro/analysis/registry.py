"""The pass registry: a certifier pass is one row of :data:`REGISTRY`.

CLI flags and ``--help`` text, pass selection, the run loop
(:mod:`repro.analysis.cli`), ``benchmarks/bench_analysis_passes.py``
and the pass list in ``docs/analysis.md`` (checked by a test) all
derive from these rows, in this order.  Adding a pass is adding a row.
"""

from __future__ import annotations

import pkgutil
from dataclasses import dataclass
from typing import Sequence

from .findings import Finding

__all__ = ["AnalysisPass", "REGISTRY", "pass_summary"]


@dataclass(frozen=True)
class AnalysisPass:
    """One certifier pass: its name, what it is, and what runs it."""

    name: str                  # ``--<name>`` flag and BENCH row
    title: str                 # one-liner; docs/analysis.md's pillar heading
    rules: str                 # ``"module:TABLE"``: {rule id: one-liner}
    runners: tuple[str, ...]   # ``"module:function"`` batteries, in order
    default: bool = False      # runs when no selection flag is given
    lints_paths: bool = False  # runners take the command line's paths

    @property
    def rule_table(self) -> dict[str, str]:
        """The pass's one rule table (its module's docstring, the
        per-cell collectors and the docs agreement test all read it)."""
        return pkgutil.resolve_name(self.rules)

    @property
    def family(self) -> str:
        """Rule-family prefix (``SCD``), read off the table's keys."""
        return next(iter(self.rule_table)).rstrip("0123456789")

    def run(self, paths: Sequence[str] = ()) -> list[Finding]:
        """Run every battery of this pass and concatenate the findings.

        Runners are resolved by module attribute at call time (and their
        modules imported only then), so a test or a tracer that replaces
        e.g. ``repro.analysis.plans.verify_plans`` is what runs.
        """
        findings: list[Finding] = []
        for runner in self.runners:
            battery = pkgutil.resolve_name(runner)
            findings.extend(battery(list(paths)) if self.lints_paths
                            else battery())
        return findings


REGISTRY: tuple[AnalysisPass, ...] = (
    AnalysisPass("lint", "numerical-safety linter",
                 "repro.analysis.rules:RULES",
                 ("repro.analysis.rules:run_lint",),
                 default=True, lints_paths=True),
    AnalysisPass("schedule", "collective-schedule verifier",
                 "repro.analysis.schedule:SCH_RULES",
                 ("repro.analysis.schedule:verify_schedules",), default=True),
    # plus the fault-runtime contracts: CRC detection (FLT004) and
    # seeded campaign reproducibility (FLT003); the FLT rules keep their
    # own table, ``repro.faults.validate:FAULT_RULES``
    AnalysisPass("contracts", "compressor-contract checker",
                 "repro.analysis.contracts:CONTRACT_RULES",
                 ("repro.analysis.contracts:verify_contracts",
                  "repro.faults.validate:verify_crc_detection",
                  "repro.faults.validate:verify_fault_determinism"),
                 default=True),
    # plus the schedule + race batteries re-run under a lossy campaign,
    # so injected retransmissions cannot mask (or create) real hazards
    # (FLT001/FLT002)
    AnalysisPass("races", "happens-before race detector",
                 "repro.analysis.races:RACE_RULES",
                 ("repro.analysis.races:verify_races",
                  "repro.faults.validate:verify_fault_schedules"),
                 default=True),
    AnalysisPass("plans", "bit-width plan certifier",
                 "repro.analysis.plans:PLAN_RULES",
                 ("repro.analysis.plans:verify_plans",)),
    AnalysisPass("shapes", "shape/dtype pipeline interpreter",
                 "repro.analysis.shapes:SHAPE_RULES",
                 ("repro.analysis.shapes:verify_shapes",)),
    AnalysisPass("health", "failure-detection battery",
                 "repro.analysis.health:HLT_RULES",
                 ("repro.analysis.health:verify_health",)),
    AnalysisPass("liveness", "deadlock & progress certifier",
                 "repro.analysis.liveness:DLV_RULES",
                 ("repro.analysis.liveness:verify_liveness",)),
    AnalysisPass("overlap", "overlap-safety certifier",
                 "repro.analysis.overlap:OVL_RULES",
                 ("repro.analysis.overlap:verify_overlap",)),
    AnalysisPass("sched", "fleet-schedule certifier",
                 "repro.analysis.sched:SCD_RULES",
                 ("repro.analysis.sched:verify_sched",)),
    AnalysisPass("elastic", "elastic-membership certifier",
                 "repro.analysis.elastic:ELA_RULES",
                 ("repro.analysis.elastic:verify_elastic",)),
)


def pass_summary() -> str:
    """The registry as prose: one ``name — title (RULES)`` line per pass."""
    return "\n".join(
        f"* {row.name} — {row.title} ({row.family}"
        f"{'; default' if row.default else ''})" for row in REGISTRY)
