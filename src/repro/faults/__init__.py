"""repro.faults: deterministic fault injection + resilience runtime.

The subsystem has six layers, mirroring the paper's separation of
mechanism and policy:

* :mod:`~repro.faults.plan` — declarative, seeded fault plans (pure
  data) and the :class:`PlanRuntime` that binds one to a generator and
  a byte-reproducible event log.  Named chaos campaigns live here, as
  does the :func:`oracle_guard` tripwire separating simulation physics
  from recovery decisions.
* :mod:`~repro.faults.policy` — the recovery switches
  (:class:`ResiliencePolicy`) and constants, campaign accounting
  (:class:`FaultCounters`), and the pure decision functions
  (:func:`select_members` over the shared :func:`quorum_floor` rule,
  :func:`plan_fallback`).
* :mod:`~repro.faults.inject` — the hooks that make both execution
  paths observe a plan: :class:`FaultChannel` for the real-numpy
  collectives and :class:`FaultyNetwork` for the timed makespan model.
* :mod:`~repro.faults.health` — the ``repro.health`` surface:
  heartbeat transport, per-rank phi-accrual failure detection, and the
  observation-driven :class:`Supervisor` (crash suspicion, straggler
  demotion, rejoin admission, checkpoint-restore escalation).
* :mod:`~repro.faults.store` — crash-consistent durable checkpoints
  (atomic rename, per-blob CRC32, retention, corruption fallback).
* :mod:`~repro.faults.validate` — analysis rules (FLT001..FLT004)
  proving injection cannot mask schedule bugs or break reproducibility;
  the health battery (HLT001..HLT005) lives in
  :mod:`repro.analysis.health`.
* :mod:`~repro.faults.cases` — the liveness battery: one multi-phase
  schedule trace per (scheme x world x campaign) cell, including quorum
  demotion and rejoin, consumed by the deadlock & progress certifier
  (DLV001..DLV006) in :mod:`repro.analysis.liveness`.
* :mod:`~repro.faults.elastic` — elastic membership: the
  :class:`ElasticCoordinator` control plane every fault runtime owns
  (a fixed world is the coordinator that never receives a notice), for
  spot-preemption drain (``preempt_warning``) and autoscale growth
  (``provision``), the
  ``spot-churn`` / ``autoscale-burst`` campaigns, and the pure
  drain-protocol audit behind the ELA battery in
  :mod:`repro.analysis.elastic`.
"""

from .cases import (LIVENESS_CAMPAIGNS, LivenessAux, LivenessCase,
                    liveness_cases, trace_liveness_case)
from .elastic import (DEFAULT_GPU, DRAIN_TOLERANCE, ElasticCoordinator,
                      ElasticDecision, autoscale_burst_campaign,
                      check_drain_protocol, fleet_alpha_scale,
                      gpu_compute_scale, spot_churn_campaign)
from .health import (VERDICTS, HealthMonitor, HeartbeatTransport,
                     PhiAccrualDetector, RankHealth, Supervisor,
                     SupervisorDecision)
from .inject import (FaultChannel, FaultyNetwork, corrupt_payload,
                     inject_data_path, payload_crc)
from .plan import (CAMPAIGNS, FaultEvent, FaultPlan, FaultRecord, PlanRuntime,
                   StepFaults, crash, link_outage, link_slowdown,
                   make_campaign, message_loss, oracle_guard,
                   payload_corruption, preempt_warning, provision, straggler)
from .policy import (FaultBudgetExceeded, FaultCounters, LinkDownError,
                     ResiliencePolicy, plan_fallback, quorum_floor,
                     select_members)
from .store import CheckpointCorrupt, CheckpointStore

__all__ = [
    "FaultEvent", "FaultPlan", "StepFaults", "FaultRecord", "PlanRuntime",
    "link_slowdown", "link_outage", "message_loss", "payload_corruption",
    "straggler", "crash", "preempt_warning", "provision",
    "CAMPAIGNS", "make_campaign", "oracle_guard",
    "ResiliencePolicy", "FaultCounters", "FaultBudgetExceeded",
    "LinkDownError", "quorum_floor", "select_members", "plan_fallback",
    "DEFAULT_GPU", "DRAIN_TOLERANCE", "ElasticCoordinator",
    "ElasticDecision", "fleet_alpha_scale", "gpu_compute_scale",
    "check_drain_protocol", "spot_churn_campaign",
    "autoscale_burst_campaign",
    "FaultChannel", "FaultyNetwork", "inject_data_path", "payload_crc",
    "corrupt_payload",
    "VERDICTS", "PhiAccrualDetector", "RankHealth",
    "HealthMonitor", "HeartbeatTransport", "Supervisor",
    "SupervisorDecision",
    "CheckpointStore", "CheckpointCorrupt",
    "LIVENESS_CAMPAIGNS", "LivenessCase", "LivenessAux", "liveness_cases",
    "trace_liveness_case",
]
