"""Tests for the bit-width plan certifier (BWP001..BWP007)."""

import numpy as np
import pytest

from repro.analysis.plans import (
    DEFAULT_ALPHAS,
    OPTIMALITY_RATCHET,
    PLAN_RULES,
    PlanInstance,
    PlanSolutions,
    certify_controller_stability,
    certify_monotonicity,
    certify_optimality,
    certify_plan_contracts,
    certify_solver,
    default_instances,
    verify_plans,
)
from repro.core import ASSIGNERS, LayerStat
from repro.core.adaptive import AdaptiveController, kmeans_assign

SMALL = PlanInstance("tiny", [
    LayerStat("embed", 1_000_000, 0.4),
    LayerStat("fc", 10_000, 1.0),
    LayerStat("head", 2_048, 2.0),
])


def rules_of(findings):
    return sorted({f.rule for f in findings})


def certify_assigners(assigners, ratchet=None):
    """``verify_plans``'s loop over its per-cell checks, for fake solvers
    on SMALL (BWP006's controller replay needs a registered method)."""
    solutions = PlanSolutions(assigners)
    findings = []
    for solver in sorted(assigners):
        assigner = assigners[solver]
        for alpha in DEFAULT_ALPHAS:
            bits, cell = certify_solver(solver, assigner, SMALL, alpha,
                                        solutions=solutions)
            findings.extend(cell)
            if bits is not None and not cell:
                findings.extend(certify_plan_contracts(solver, bits, SMALL,
                                                       alpha))
        findings.extend(certify_monotonicity(solver, assigner, SMALL,
                                             solutions=solutions))
        findings.extend(certify_optimality(solver, assigner, [SMALL],
                                           ratchet=ratchet,
                                           solutions=solutions))
    return findings


# -- the real repo certifies cleanly ------------------------------------------

def test_real_solvers_certify_clean():
    assert verify_plans() == []


def test_battery_covers_every_model_spec_and_degenerate_corners():
    names = {i.name for i in default_instances()}
    for spec in ("resnet50", "vgg16", "vit", "transformer_xl",
                 "bert", "gpt2"):
        assert f"spec:{spec}" in names
    assert {"zero-norm", "single-layer", "txl-like"} <= names
    assert any(i.small for i in default_instances())


def test_every_rule_has_a_description():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "plans"]
    assert row.rule_table is PLAN_RULES and row.family == "BWP"
    assert all(PLAN_RULES.values())
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py
    assert set(OPTIMALITY_RATCHET) == set(ASSIGNERS)


# -- regression: broken solvers must be caught --------------------------------

def budget_buster(stats, alpha=2.0):
    """Assigns 2 bits everywhere: violates any reasonable budget."""
    return {s.name: 2 for s in stats}


def ladder_escaper(stats, alpha=2.0):
    """Emits a width outside the requested ladder (and every bucket map)."""
    return {s.name: 9 for s in stats}


def layer_loser(stats, alpha=2.0):
    bits = kmeans_assign(stats, alpha=alpha)
    bits.pop(next(iter(bits)))
    return bits


def crasher(stats, alpha=2.0):
    raise RuntimeError("solver exploded")


def wasteful(stats, alpha=2.0):
    return {s.name: 8 for s in stats}  # always feasible, never frugal


def moody(stats, alpha=2.0):
    width = 8 if alpha > 2.0 else 4  # more budget -> more bytes
    return {s.name: width for s in stats}


def test_budget_violation_fires_bwp001():
    _, findings = certify_solver("bad", budget_buster, SMALL, alpha=1.5)
    assert "BWP001" in rules_of(findings)


def test_ladder_escape_fires_bwp002_and_bwp004():
    _, findings = certify_solver("bad", ladder_escaper, SMALL, alpha=2.0)
    assert "BWP002" in rules_of(findings)
    assert "BWP004" in rules_of(findings)


def test_lost_layer_fires_bwp002():
    _, findings = certify_solver("bad", layer_loser, SMALL, alpha=2.0)
    assert rules_of(findings) == ["BWP002"]
    assert "covers" in findings[0].message


def test_crashing_solver_fires_bwp002_not_an_exception():
    bits, findings = certify_solver("bad", crasher, SMALL, alpha=2.0)
    assert bits is None
    assert rules_of(findings) == ["BWP002"]
    assert "RuntimeError" in findings[0].message


def test_wasteful_solver_fires_bwp003():
    findings = certify_optimality("kmeans", wasteful, [SMALL],
                                  alphas=(2.0,))
    assert rules_of(findings) == ["BWP003"]


def test_non_monotone_solver_fires_bwp005():
    findings = certify_monotonicity("moody", moody, SMALL, alphas=(1.5, 3.0))
    assert "BWP005" in rules_of(findings)


def test_verify_plans_end_to_end_on_broken_solver():
    findings = certify_assigners({"bad": budget_buster})
    assert "BWP001" in rules_of(findings)
    assert all(f.source == "plan" and f.scheme == "bad" for f in findings)
    assert all(f.path == "<plan:bad>" for f in findings)


# -- records, not re-runs -----------------------------------------------------

def test_verify_plans_solves_each_cell_once(monkeypatch):
    """One ``PlanSolutions`` record per battery: BWP001/003/005 read the
    same solver run, BWP003 of every solver the same exact optimum."""
    from collections import Counter

    import repro.analysis.plans as plans

    instances = default_instances()
    name_of = {id(i.stats): i.name for i in instances}
    solved, optima = Counter(), Counter()

    def counting(solver, assigner):
        def wrapped(stats, alpha=2.0):
            solved[solver, name_of[id(stats)], alpha] += 1
            return assigner(stats, alpha=alpha)
        return wrapped

    def counting_brute_force(stats, alpha=2.0, **kwargs):
        optima[name_of[id(stats)], alpha] += 1
        return brute_force(stats, alpha=alpha, **kwargs)

    brute_force = plans.brute_force_assign
    monkeypatch.setattr(plans, "brute_force_assign", counting_brute_force)
    monkeypatch.setattr(plans, "ASSIGNERS", {
        name: counting(name, fn) for name, fn in ASSIGNERS.items()})
    monkeypatch.setattr(plans, "default_instances", lambda: instances)
    assert verify_plans() == []
    small = [i for i in instances if i.small]
    assert set(solved.values()) == set(optima.values()) == {1}
    assert len(solved) == len(ASSIGNERS) * len(instances) * len(DEFAULT_ALPHAS)
    assert len(optima) == len(small) * len(DEFAULT_ALPHAS)
    assert (len(solved), len(optima)) == (180, 27)   # 441 / 81 per-check


#: fingerprints of ``verify_plans`` over the six broken solvers on SMALL
#: with every ratchet at 1.25x, recorded at 5a4e06a — when each check
#: still re-ran the solver itself
BROKEN_SOLVER_FINGERPRINTS = [
    "c8f845b92d3d1b1c", "8a15a2b93569b61f", "fb2432b015c784d8", "67d4c6dd28bc0993",
    "212eb3e0350c7490", "9ce1247ed2c3ef6c", "e205ad6ecc13de9a", "8e3dd6c63791649e",
    "7a02205a6a736904", "b76b88230d06bd08", "05bda544d8b04a27", "f867ce2037a65233",
    "43b5bc0d36679068", "3ea92cd2ae2f553c", "782a052a1525e5b5", "39cf585f53a2701d",
    "98227e9c436efbd9", "d02d66fe57b1b1d8", "04a8607784e02cd2", "25569ae14de0a552",
    "aba9753e8d5653c3", "487219808b04f2fd", "c7a2cd60988d0399", "dc8ecb3e1ac5b9f2",
    "e036f6d727115924", "18863fa6872e19ea",
]


def test_shared_record_reports_what_the_per_check_solves_reported():
    broken = {fn.__name__: fn for fn in (budget_buster, ladder_escaper,
                                         layer_loser, crasher, wasteful,
                                         moody)}
    findings = certify_assigners(broken, ratchet=dict.fromkeys(broken, 1.25))
    assert [f.fingerprint for f in findings] == BROKEN_SOLVER_FINGERPRINTS
    assert rules_of(findings) == ["BWP001", "BWP002", "BWP003", "BWP004",
                                  "BWP005"]


# -- BWP006: controller respec stability --------------------------------------

def test_stationary_controller_is_stable():
    for solver in ASSIGNERS:
        assert certify_controller_stability(solver) == []


def test_flappy_controller_fires_bwp006():
    class FlappyController(AdaptiveController):
        """Alternates the embedding width every respec."""

        def reassign(self):
            super().reassign()
            self._flip = not getattr(self, "_flip", False)
            if self._flip and self.assignments:
                name = next(iter(self.assignments))
                self.assignments[name] = 8

    findings = certify_controller_stability(
        "kmeans", controller_cls=FlappyController)
    assert "BWP006" in rules_of(findings)
    assert any("flipped" in f.message or "spec" in f.message
               for f in findings)


# -- BWP007: plan/contract agreement ------------------------------------------

def test_plan_bits_match_qsgd_contract():
    bits = kmeans_assign(SMALL.stats, alpha=2.0)
    assert certify_plan_contracts("kmeans", bits, SMALL, 2.0) == []


def test_undeclared_bits_fire_bwp007():
    from repro.analysis.abstract import default_registry
    from repro.compression.contracts import CompressorContract
    from repro.compression.qsgd import QSGDCompressor

    class SilentQSGD(QSGDCompressor):
        contract = CompressorContract("qsgd", uses_rng=True)  # no bits

    registry = dict(default_registry())
    registry["qsgd"] = SilentQSGD
    findings = certify_plan_contracts(
        "kmeans", {"embed": 4}, SMALL, 2.0, registry=registry)
    assert rules_of(findings) == ["BWP007"]
    assert "supported_bits" in findings[0].message


def test_bits_outside_declaration_fire_bwp007():
    findings = certify_plan_contracts("bad", {"embed": 16}, SMALL, 2.0)
    assert rules_of(findings) == ["BWP007"]


def test_unknown_method_fires_bwp007():
    findings = certify_plan_contracts("kmeans", {"embed": 4}, SMALL, 2.0,
                                      method="warpdrive")
    assert rules_of(findings) == ["BWP007"]


# -- determinism --------------------------------------------------------------

def test_verify_plans_is_deterministic():
    first = certify_assigners({"bad": budget_buster})
    second = certify_assigners({"bad": budget_buster})
    assert [f.fingerprint for f in first] == [f.fingerprint for f in second]


def test_default_alphas_are_sorted_and_span_the_paper_range():
    assert list(DEFAULT_ALPHAS) == sorted(DEFAULT_ALPHAS)
    assert DEFAULT_ALPHAS[0] <= 2.0 <= DEFAULT_ALPHAS[-1]
