"""Analysis pass: prove the fault machinery cannot mask real bugs.

Injected faults rewrite the message log (retransmitted payloads add
send/recv pairs) and consume extra randomness, so they could in
principle hide a schedule asymmetry or a data race behind noise — or
introduce one of their own.  These batteries close that hole; they are
runners of the ``contracts`` and ``races`` rows of
:data:`repro.analysis.registry.REGISTRY`, so CI runs them alongside
SCH/RACE/CON.  The rules:

"""

from __future__ import annotations

import numpy as np

from repro.analysis.abstract import probe_specs
from repro.analysis.findings import (CellFindings, Finding, rule_table,
                                     sort_findings)
from repro.analysis.races import analyze_trace
from repro.analysis.schedule import trace_case, verify_trace
from repro.collectives import scheme_cell
from repro.compression import METHODS, make_compressor

from .inject import corrupt_payload, inject_data_path, payload_crc
from .plan import FIXED_WORLD_CAMPAIGNS, PlanRuntime, make_campaign
from .policy import ResiliencePolicy

__all__ = ["FAULT_RULES", "verify_fault_schedules", "verify_fault_determinism",
           "verify_crc_detection", "fault_path"]

FAULT_RULES = {
    "FLT001": "schedule invariant violated under fault injection",
    "FLT002": "data race introduced under fault injection",
    "FLT003": "fault campaign is not seed-deterministic",
    "FLT004": "CRC fails to detect payload corruption",
}
__doc__ = rule_table(__doc__, FAULT_RULES)

#: the rows the injection sweep runs, scheme -> world: one per schedule
#: shape (hierarchical is covered through its nested SRA calls)
_FAULT_WORLDS = {"sra": 4, "ring": 4, "tree": 5, "allgather": 3, "ps": 4,
                 "partial": 4}
_FAULT_CASES = tuple(scheme_cell(scheme, world)
                     for scheme, world in _FAULT_WORLDS.items())

#: a fault step well inside every campaign's loss/corruption window
_INJECT_STEP = 4

#: FLT003 runs every fixed-world campaign twice at this world and seed
_DETERMINISM_WORLD = 4
_DETERMINISM_SEED = 7


def fault_path(scheme: str, world: int) -> str:
    return f"<faults:{scheme}@world={world}>"


def _campaign_runtime(world: int) -> PlanRuntime:
    runtime = PlanRuntime(make_campaign("lossy-link", world=world, seed=0),
                          ResiliencePolicy())
    runtime.advance(_INJECT_STEP)
    return runtime


def verify_fault_schedules() -> list[Finding]:
    """Re-run the SCH + RACE batteries with a lossy campaign installed."""
    findings: list[Finding] = []
    for case in _FAULT_CASES:
        out = CellFindings("faults", FAULT_RULES, case.scheme, case.world,
                           fault_path(case.scheme, case.world))
        runtime = _campaign_runtime(case.world)
        with inject_data_path(runtime):
            trace, stats = trace_case(case)
        for rule, inners in (
                ("FLT001", verify_trace(trace, stats, case)),
                ("FLT002", analyze_trace(trace, case.scheme, case.world))):
            for inner in inners:
                out.emit(rule, f"[{inner.rule}] under lossy-link injection: "
                               f"{inner.message}")
        findings.extend(out)
    return sort_findings(findings)


def verify_fault_determinism() -> list[Finding]:
    """One campaign, one seed, two runs: the event logs must be bytes-equal."""
    world, seed = _DETERMINISM_WORLD, _DETERMINISM_SEED
    findings: list[Finding] = []
    for campaign in FIXED_WORLD_CAMPAIGNS:
        logs = []
        for _ in range(2):
            runtime = PlanRuntime(
                make_campaign(campaign, world=world, seed=seed))
            for step in range(1, 12):
                runtime.advance(step)
                with inject_data_path(runtime):
                    trace_case(scheme_cell("sra", world), seed=seed)
            logs.append(runtime.log_bytes())
        if logs[0] != logs[1]:
            findings.append(Finding.semantic(
                "faults", "FLT003",
                f"campaign {campaign!r} with seed {seed} produced two "
                f"different fault event logs "
                f"({len(logs[0])}B vs {len(logs[1])}B)",
                campaign, world, fault_path(campaign, world)))
    return sort_findings(findings)


def verify_crc_detection() -> list[Finding]:
    """Corrupt every registered method's wire payload (each of its
    ``probe_specs``); the CRC must always change."""
    findings: list[Finding] = []
    rng = np.random.default_rng(3)
    for method in METHODS:
        for spec in probe_specs(method):
            compressor = make_compressor(spec)
            array = np.asarray(rng.normal(size=129), dtype=np.float32)
            wire = compressor.compress(array, rng, key="crc")
            corrupted = corrupt_payload(wire, rng)
            if corrupted is wire:  # pragma: no cover - all carry payload
                continue
            if payload_crc(corrupted) == payload_crc(wire):
                findings.append(Finding.semantic(
                    "faults", "FLT004",
                    f"{spec.method}: single-byte corruption left the payload "
                    f"CRC unchanged", spec.method, 1,
                    f"<faults:crc@{spec.method}>"))
    return sort_findings(findings)
