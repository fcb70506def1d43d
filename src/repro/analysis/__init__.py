"""Domain-aware static analysis for the CGX reproduction.

Each pass is one row of :data:`repro.analysis.registry.REGISTRY`; the
per-pillar prose and rule catalogs live in ``docs/analysis.md``.  Run
``python -m repro.analysis`` (or ``python -m repro analyze``); pass
selection and output formats live in :mod:`repro.analysis.cli`.
The passes:

"""

from .abstract import (BehaviorObservation, RoundtripObservation,
                       default_registry, execute_behavior,
                       execute_roundtrips, probe_specs,
                       replay_adaptive_respec, replay_engine_wiring)
from .cli import main
from .contracts import CONTRACT_RULES, check_engine_wiring, verify_contracts
from .elastic import ELA_RULES, ELASTIC_CAMPAIGNS, verify_elastic
from .explore import (FairRunResult, Op, build_programs, fair_schedule,
                      phase_segments)
from .findings import JSON_REPORT_SCHEMA, Finding, sort_findings
from .liveness import (DLV_RULES, analyze_trace_liveness, lint_blocking,
                       verify_liveness)
from .plans import (DEFAULT_ALPHAS, OPTIMALITY_RATCHET, PLAN_RULES,
                    PlanInstance, certify_controller_stability,
                    certify_optimality, certify_plan_contracts,
                    certify_solver, default_instances, verify_plans)
from .races import RACE_RULES, analyze_callable, analyze_trace, verify_races
from .registry import REGISTRY, AnalysisPass, pass_summary
from .rules import HOT_PATH_PARTS, RULES, lint_file, lint_source, run_lint
from .shapes import (SCHEME_MODELS, SHAPE_RULES, SchemeModel, WireSegment,
                     battery_specs, calibrate_payload_model,
                     interpret_pipeline, symbolic_payload,
                     symbolic_wire_bytes, verify_shapes)
from .schedule import (SCH_RULES, SchemeCase, default_cases,
                       expected_recompression_bound, trace_case,
                       verify_callable, verify_case, verify_schedules,
                       verify_trace)

__doc__ = (__doc__ or "") + pass_summary() + "\n"

__all__ = [
    "Finding", "JSON_REPORT_SCHEMA", "sort_findings",
    "AnalysisPass", "REGISTRY",
    "RULES", "HOT_PATH_PARTS", "lint_source", "lint_file", "run_lint",
    "SCH_RULES", "SchemeCase", "default_cases",
    "expected_recompression_bound",
    "trace_case", "verify_trace", "verify_case", "verify_schedules",
    "verify_callable",
    "CONTRACT_RULES", "verify_contracts", "check_engine_wiring",
    "RoundtripObservation", "BehaviorObservation", "default_registry",
    "probe_specs", "execute_roundtrips", "execute_behavior",
    "replay_engine_wiring", "replay_adaptive_respec",
    "RACE_RULES", "analyze_trace", "analyze_callable", "verify_races",
    "PLAN_RULES", "PlanInstance", "DEFAULT_ALPHAS", "OPTIMALITY_RATCHET",
    "default_instances", "certify_solver", "certify_optimality",
    "certify_controller_stability", "certify_plan_contracts",
    "verify_plans",
    "SHAPE_RULES", "WireSegment", "SchemeModel", "SCHEME_MODELS",
    "symbolic_payload", "symbolic_wire_bytes", "battery_specs",
    "calibrate_payload_model", "interpret_pipeline", "verify_shapes",
    "DLV_RULES", "analyze_trace_liveness", "lint_blocking",
    "verify_liveness",
    "ELA_RULES", "ELASTIC_CAMPAIGNS", "verify_elastic",
    "Op", "FairRunResult", "build_programs", "phase_segments",
    "fair_schedule",
    "main",
]
