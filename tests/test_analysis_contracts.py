"""Contract checker: every CON rule fires on a fixture and the real
registry/engine come back clean."""

import numpy as np
import pytest

from repro.analysis.abstract import (
    PROBE_SHAPES,
    default_registry,
    execute_behavior,
    execute_roundtrips,
    probe_specs,
    replay_adaptive_respec,
)
from repro.analysis.contracts import (
    CONTRACT_RULES,
    check_engine_wiring,
    check_operator,
    verify_contracts,
)
from repro.compression import (
    METHODS,
    Compressed,
    CompressionSpec,
    CompressorContract,
    ErrorFeedback,
    IdentityCompressor,
    make_compressor,
    register,
)
from repro.core import CGXConfig, CommunicationEngine


def rules_of(findings):
    return {f.rule for f in findings}


# -- the real codebase is clean ------------------------------------------------

def test_real_registry_and_engine_clean():
    assert verify_contracts() == []


def test_every_registered_method_has_probe_specs():
    for method in default_registry():
        assert probe_specs(method), f"no probe specs for {method}"


def test_findings_carry_contract_source_and_path():
    fixture = type("NoContract", (IdentityCompressor,), {"contract": None})
    findings = check_operator("none", fixture)
    assert findings
    for f in findings:
        assert f.source == "contract"
        assert f.path == "<contract:none>"
        assert f.scheme == "none"
        assert f.fingerprint  # stable identity for the baseline ratchet


# -- CON001: missing/mismatched declaration -----------------------------------

def test_con001_missing_contract():
    fixture = type("NoContract", (IdentityCompressor,), {"contract": None})
    findings = check_operator("none", fixture)
    assert rules_of(findings) == {"CON001"}


def test_con001_mismatched_method():
    fixture = type("WrongMethod", (IdentityCompressor,),
                   {"contract": CompressorContract("qsgd")})
    findings = check_operator("none", fixture)
    assert rules_of(findings) == {"CON001"}


# -- CON002: shape/dtype preservation -----------------------------------------

class FlatteningCompressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=False)

    def decompress(self, compressed):
        return compressed.payload["values"].copy()  # loses the shape


class Float64Compressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=False)

    def decompress(self, compressed):
        return super().decompress(compressed).astype(np.float64)


def test_con002_shape_violation():
    findings = check_operator("none", FlatteningCompressor)
    assert "CON002" in rules_of(findings)


def test_con002_dtype_violation():
    findings = check_operator("none", Float64Compressor)
    assert "CON002" in rules_of(findings)


# -- CON003: wire-byte drift ---------------------------------------------------

class InflatedClaimCompressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=True)

    def compress(self, array, rng, key=None):
        compressed = super().compress(array, rng, key=key)
        return Compressed(compressed.spec, compressed.numel,
                          compressed.shape, compressed.payload,
                          compressed.nbytes + 16)  # lies about the wire


def test_con003_wire_drift():
    findings = check_operator("none", InflatedClaimCompressor)
    assert rules_of(findings) == {"CON003"}
    assert any("16" in f.message or "payload declares" in f.message
               for f in findings)


# -- CON004: statefulness mismatch --------------------------------------------

class SecretlyStatefulCompressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=False)  # claims stateless

    def __init__(self, spec):
        super().__init__(spec)
        self._step = 0

    def compress(self, array, rng, key=None):
        self._step += 1
        return super().compress(np.asarray(array) + self._step, rng, key=key)


class FalselyStatefulCompressor(IdentityCompressor):
    contract = CompressorContract("none", stateful=True, lossless=True)


def test_con004_undeclared_state():
    findings = check_operator("none", SecretlyStatefulCompressor)
    assert "CON004" in rules_of(findings)


def test_con004_stale_stateful_declaration():
    findings = check_operator("none", FalselyStatefulCompressor)
    assert "CON004" in rules_of(findings)


# -- CON005: rng mismatch ------------------------------------------------------

class SecretlyStochasticCompressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=False)  # claims rng-free

    def compress(self, array, rng, key=None):
        noise = rng.standard_normal(np.shape(array)).astype(np.float32)
        return super().compress(np.asarray(array) + 0.01 * noise, rng,
                                key=key)


class FalselyStochasticCompressor(IdentityCompressor):
    contract = CompressorContract("none", uses_rng=True, lossless=True)


def test_con005_undeclared_rng_use():
    findings = check_operator("none", SecretlyStochasticCompressor)
    assert "CON005" in rules_of(findings)


def test_con005_stale_rng_declaration():
    findings = check_operator("none", FalselyStochasticCompressor)
    assert "CON005" in rules_of(findings)


# -- CON006: error-feedback wiring --------------------------------------------

def test_con006_topk_without_error_feedback():
    config = CGXConfig(compression=CompressionSpec("topk", density=0.1))
    findings = check_engine_wiring(configs=[config])
    assert "CON006" in rules_of(findings)
    assert any("topk" in f.message for f in findings)


def test_con006_dgc_double_wrapped():
    config = CGXConfig(compression=CompressionSpec(
        "dgc", density=0.05, error_feedback=True))
    findings = check_engine_wiring(configs=[config])
    assert any(f.rule == "CON006" and "own residual" in f.message
               for f in findings)


def test_con006_correctly_wired_configs_clean():
    configs = [
        CGXConfig(compression=CompressionSpec("topk", density=0.1,
                                              error_feedback=True)),
        CGXConfig(compression=CompressionSpec("dgc", density=0.05)),
    ]
    findings = check_engine_wiring(configs=configs)
    assert "CON006" not in rules_of(findings)


# -- CON007: residuals dropped on same-method respec --------------------------

class LegacyEngine(CommunicationEngine):
    """Pre-fix behaviour: rebuild on any spec change, residuals lost."""

    def _compressor_for(self, package):
        comp = self._compressors.get(package.name)
        if comp is None or comp.spec != package.spec:
            comp = make_compressor(package.spec)
            if package.spec.error_feedback:
                comp = ErrorFeedback(comp)
            self._compressors[package.name] = comp
        return comp


def test_con007_legacy_engine_drops_residuals():
    findings = check_engine_wiring(engine_cls=LegacyEngine)
    assert "CON007" in rules_of(findings)


def test_con007_current_engine_carries_residuals():
    respec = replay_adaptive_respec()
    assert respec["rebuilt"] and respec["carried"]
    assert "CON007" not in rules_of(check_engine_wiring())


# -- every registered method is certified, with no list kept in analysis/ -------

@pytest.mark.parametrize("method", sorted(METHODS))
def test_flt004_probes_every_registered_method(method, monkeypatch):
    # the hand-kept spec list never corrupted a dgc, powersgd or fake payload
    import repro.faults.validate as validate
    from repro.faults.inject import corrupt_payload

    corrupted = []

    def recording(wire, rng):
        corrupted.append(wire.spec)
        return corrupt_payload(wire, rng)

    monkeypatch.setattr(validate, "corrupt_payload", recording)
    assert validate.verify_crc_detection() == []
    assert [s for s in corrupted if s.method == method] == probe_specs(method)


def test_flt004_fires_when_the_crc_misses_a_flipped_byte(monkeypatch):
    import repro.faults.validate as validate

    monkeypatch.setattr(validate, "payload_crc", lambda wire: 0)
    findings = validate.verify_crc_detection()
    assert rules_of(findings) == {"FLT004"}
    assert {f.scheme for f in findings} == set(METHODS)
    assert all(f.path == f"<faults:crc@{f.scheme}>" for f in findings)


@pytest.fixture
def fixture_method():
    """A method that exists only in this test, entered with ``@register``."""
    @register
    class Mirror(IdentityCompressor):
        contract = CompressorContract("mirror", lossless=True,
                                      requires_error_feedback=True)

    yield "mirror"
    del METHODS["mirror"]


def test_registered_method_is_certified_without_touching_analysis(
        fixture_method, monkeypatch):
    import repro.faults.validate as validate

    assert probe_specs(fixture_method) == [CompressionSpec(fixture_method)]
    assert verify_contracts() == []          # probed, wired with EF, clean
    assert validate.verify_crc_detection() == []
    monkeypatch.setattr(validate, "payload_crc", lambda wire: 0)
    assert fixture_method in {
        f.scheme for f in validate.verify_crc_detection()}

    class BareEngine(CommunicationEngine):
        def _compressor_for(self, package):
            return make_compressor(package.spec)

    # the EF configs come from ``contract.requires_error_feedback``
    assert any(f.rule == "CON006" and f.scheme == fixture_method
               for f in check_engine_wiring(engine_cls=BareEngine))


# -- CON008: lossless violated -------------------------------------------------

class RoundingCompressor(IdentityCompressor):
    contract = CompressorContract("none", lossless=True)

    def decompress(self, compressed):
        return np.round(super().decompress(compressed), 1)


def test_con008_lossless_violation():
    findings = check_operator("none", RoundingCompressor)
    assert rules_of(findings) == {"CON008"}


# -- the abstract executor itself ----------------------------------------------

def test_roundtrip_observations_cover_all_probe_shapes():
    obs = execute_roundtrips(IdentityCompressor, CompressionSpec("none"))
    assert [o.shape for o in obs] == list(PROBE_SHAPES)
    for o in obs:
        assert o.claimed_bytes == o.declared_bytes == o.measured_bytes
        assert o.exact  # identity is lossless


def test_behavior_probe_detects_qsgd_rng():
    cls = default_registry()["qsgd"]
    behavior = execute_behavior(cls, CompressionSpec("qsgd", bits=4,
                                                     bucket_size=32))
    assert behavior.rng_sensitive
    assert not behavior.repeat_differs


def test_behavior_probe_detects_powersgd_state():
    cls = default_registry()["powersgd"]
    behavior = execute_behavior(cls, CompressionSpec("powersgd", rank=4))
    assert behavior.repeat_differs  # warm start changes the payload
    assert not behavior.rng_sensitive


def test_contract_rules_table_complete():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "contracts"]
    assert row.rule_table is CONTRACT_RULES and row.family == "CON"
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py
