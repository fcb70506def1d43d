"""Compressor-contract checker (rules CON001..CON008).

Each compression operator declares a
:class:`~repro.compression.CompressorContract`; this pass verifies the
declaration against *observed* behaviour from
:mod:`repro.analysis.abstract` — no source inspection, so a contract
violation means the operator genuinely misbehaves, not that it is
written in an unexpected style.  The rules:

"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.compression import CompressionSpec, Compressor, ErrorFeedback
from repro.core import CGXConfig, CommunicationEngine

from .abstract import (
    default_registry,
    execute_behavior,
    execute_roundtrips,
    probe_specs,
    replay_adaptive_respec,
    replay_engine_wiring,
)
from .findings import CellFindings, Finding, rule_table

__all__ = ["CONTRACT_RULES", "verify_contracts", "check_operator",
           "check_engine_wiring"]

CONTRACT_RULES = {
    "CON001": "missing or mismatched compressor contract",
    "CON002": "shape/numel/dtype preservation violated",
    "CON003": "wire-byte claim drifts from serialized payload",
    "CON004": "statefulness declaration does not match behaviour",
    "CON005": "rng-usage declaration does not match behaviour",
    "CON006": "error-feedback-requiring method wired without ErrorFeedback",
    "CON007": "error-feedback residuals dropped on same-method respec",
    "CON008": "lossless claim violated by roundtrip",
}
__doc__ = rule_table(__doc__, CONTRACT_RULES)


def _spec_label(spec: CompressionSpec) -> str:
    """Compact spec id for messages: distinguishes same-method probes."""
    parts = [spec.method]
    for name in ("bits", "bucket_size", "density", "rank", "ratio",
                 "scaling", "wire_dtype_bits"):
        value = getattr(spec, name, None)
        if value not in (None, "", 0):
            parts.append(f"{name}={value}")
    return " ".join(parts)


def check_operator(method: str, cls: type[Compressor]) -> list[Finding]:
    """CON001..CON005 + CON008 for one registered operator class."""
    out = CellFindings("contract", CONTRACT_RULES, method)
    contract = getattr(cls, "contract", None)
    if contract is None:
        out.emit("CON001", f"{cls.__name__} declares no CompressorContract")
        return out
    if contract.method != method:
        out.emit("CON001",
                 f"{cls.__name__}.contract.method is {contract.method!r} but "
                 f"the operator is registered as {method!r}")
        return out

    for spec in probe_specs(method):
        for obs in execute_roundtrips(cls, spec):
            if contract.preserves_shape and (
                    obs.out_shape != obs.shape
                    or obs.out_numel != math.prod(obs.shape)):
                out.emit("CON002",
                         f"roundtrip of shape {obs.shape} returned shape "
                         f"{obs.out_shape} ({_spec_label(spec)})")
            if obs.out_dtype != contract.output_dtype:
                out.emit("CON002",
                         f"decompress returned dtype {obs.out_dtype}, "
                         f"contract declares {contract.output_dtype} "
                         f"({_spec_label(spec)})")
            if contract.exact_wire_claim and not (
                    obs.claimed_bytes == obs.declared_bytes
                    == obs.measured_bytes):
                out.emit("CON003",
                         f"shape {obs.shape} ({_spec_label(spec)}): "
                         f"wire_bytes claims {obs.claimed_bytes}, payload "
                         f"declares {obs.declared_bytes}, serialization measures "
                         f"{obs.measured_bytes}")
            if contract.lossless and not obs.exact:
                out.emit("CON008",
                         f"shape {obs.shape} ({_spec_label(spec)}): roundtrip "
                         f"declared lossless altered the tensor")

        behavior = execute_behavior(cls, spec)
        if behavior.repeat_differs and not contract.stateful:
            out.emit("CON004",
                     f"payload changed across identical repeat calls but the "
                     f"contract declares stateless ({_spec_label(spec)})")
        if contract.stateful and not behavior.repeat_differs:
            out.emit("CON004",
                     f"contract declares stateful but repeated identical "
                     f"calls produced identical payloads "
                     f"({_spec_label(spec)})")
        if behavior.rng_sensitive and not contract.uses_rng:
            out.emit("CON005",
                     f"payload depends on the generator seed but the contract "
                     f"declares uses_rng=False ({_spec_label(spec)})")
        if contract.uses_rng and not behavior.rng_sensitive:
            out.emit("CON005",
                     f"contract declares uses_rng=True but payloads were "
                     f"seed-invariant ({_spec_label(spec)})")
    return out


def check_engine_wiring(
    configs: list[CGXConfig] | None = None,
    engine_cls: type[CommunicationEngine] = CommunicationEngine,
) -> list[Finding]:
    """CON006/CON007: replay engine planning and adaptive respec.

    Args:
        configs: engine configs to replay; defaults to the CGX default
            plus one per method whose contract requires error feedback
            (its first probe spec, wrapped unless it keeps its own
            residual), so every wiring path is exercised.
        engine_cls: injectable for fixtures (a legacy engine class that
            drops residuals triggers CON007).

    Contracts are read from the real registry.
    """
    registry = default_registry()
    if configs is None:
        configs = [CGXConfig.cgx_default(128)]
        for method, cls in registry.items():
            contract = getattr(cls, "contract", None)
            if contract is not None and contract.requires_error_feedback:
                configs.append(CGXConfig(compression=replace(
                    probe_specs(method)[0],
                    error_feedback=not contract.self_error_feedback)))

    out = CellFindings("contract", CONTRACT_RULES)
    for config in configs:
        for package, compressor in replay_engine_wiring(config, engine_cls):
            method = package.spec.method
            cls = registry.get(method)
            contract = getattr(cls, "contract", None) if cls else None
            if contract is None:
                continue  # CON001 reports the missing declaration
            wrapped = isinstance(compressor, ErrorFeedback)
            if (contract.requires_error_feedback
                    and not contract.self_error_feedback and not wrapped):
                out.emit("CON006",
                         f"package {package.name!r} uses {method} (requires "
                         f"error feedback) but the engine built a bare "
                         f"{type(compressor).__name__}", method)
            if contract.self_error_feedback and wrapped:
                out.emit("CON006",
                         f"package {package.name!r}: {method} maintains its "
                         f"own residual but the engine double-wrapped it in "
                         f"ErrorFeedback", method)

    respec = replay_adaptive_respec(engine_cls)
    if respec["rebuilt"] and not respec["carried"]:
        out.emit("CON007",
                 "adaptive same-method respec rebuilt the compressor and lost "
                 f"{respec['residual_norm_before']:.3g} of accumulated "
                 "error-feedback residual (expected it to carry over)", "topk")
    return out


def verify_contracts() -> list[Finding]:
    """Run every contract rule over the registered operators.

    Replays the real registry (:func:`make_compressor`'s table) and the
    real engine; tests hand broken operators to :func:`check_operator`
    and broken engines to :func:`check_engine_wiring`.
    """
    registry = default_registry()
    findings: list[Finding] = []
    for method in sorted(registry):
        findings.extend(check_operator(method, registry[method]))
    findings.extend(check_engine_wiring())
    return findings
