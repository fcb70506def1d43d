"""Plan certifier: abstract verification of adaptive bit-width plans.

The adaptive compression problem (paper Section 5, Algorithm 1) picks
per-layer bit-widths minimizing transmitted bytes subject to the total
compression error staying within ``alpha * E4``.  The solvers in
:mod:`repro.core.adaptive` are heuristics, so this pass certifies every
registered solver over a seeded battery of instances (synthetic
families + ``synthetic_stats_for_spec`` over every full-size model
spec), comparing errors in exact rational arithmetic and bytes as exact
integers.  Long form: ``docs/analysis.md`` pillar 5.  The rules:

"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.compression import CompressionSpec, Compressor
from repro.core import CGXConfig
from repro.core.adaptive import (
    ASSIGNERS,
    BITWIDTHS,
    REFERENCE_BITS,
    AdaptiveController,
    LayerStat,
    assignment_cost_bits,
    brute_force_assign,
    certify_assignment,
    resolve_bucket,
    synthetic_stats_for_spec,
)
from repro.models import available_specs, build_spec

from .abstract import default_registry
from .findings import CellFindings, Finding, rule_table

__all__ = [
    "PLAN_RULES",
    "PlanInstance",
    "DEFAULT_ALPHAS",
    "OPTIMALITY_RATCHET",
    "default_instances",
    "certify_solver",
    "certify_optimality",
    "certify_monotonicity",
    "certify_controller_stability",
    "certify_plan_contracts",
    "verify_plans",
]

PLAN_RULES = {
    "BWP001": "assignment violates the alpha*E4 error budget (exact)",
    "BWP002": "assignment is structurally unsound",
    "BWP003": "optimality gap exceeds the ratcheted bound",
    "BWP004": "emitted bit-width does not resolve to a bucket/spec",
    "BWP005": "larger error budget transmitted more bytes",
    "BWP006": "controller respec is unstable or incoherent",
    "BWP007": "plan names bits no compressor contract supports",
}
__doc__ = rule_table(__doc__, PLAN_RULES)

DEFAULT_ALPHAS: tuple[float, ...] = (1.5, 2.0, 3.0)

#: ratcheted worst-case byte overhead of each heuristic over the exact
#: brute-force optimum, across the small-instance battery.  Measured at
#: introduction time and only allowed to go *down*: a solver change that
#: worsens any heuristic past its bound fails BWP003.  All three solvers
#: currently measure 1.7143x, hit on the degenerate zero-norm instance
#: where they fall back to the uniform static assignment while the exact
#: optimum exploits the dead layer.
OPTIMALITY_RATCHET: dict[str, float] = {
    "kmeans": 1.75,
    "linear": 1.75,
    "bayes": 1.75,
}

#: layers above this count are skipped by the brute-force reference
SMALL_INSTANCE_LAYERS = 12

#: BWP006 replays two respecs of this period
RESPEC_PERIOD = 2


class PlanInstance:
    """One named battery instance: layer statistics + brute-force flag."""

    def __init__(self, name: str, stats: Sequence[LayerStat]) -> None:
        self.name = name
        self.stats = list(stats)

    @property
    def small(self) -> bool:
        return 0 < len(self.stats) <= SMALL_INSTANCE_LAYERS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanInstance({self.name}, L={len(self.stats)})"


def _txl_like() -> list[LayerStat]:
    """The canonical hard instance: one huge insensitive embedding, a
    blob of near-identical matrices, a few small sensitive layers."""
    rng = np.random.default_rng(0)
    stats = [LayerStat("embed", 137_000_000,
                       0.25 * float(np.sqrt(0.01 * 137e6)))]
    for i in range(32):
        n = 786_432
        stats.append(LayerStat(f"mat{i}", n, float(np.sqrt(0.01 * n))
                               * (1.0 + 0.05 * rng.random())))
    for i in range(8):
        stats.append(LayerStat(f"small{i}", 2048,
                               2.0 * float(np.sqrt(0.01 * 2048))))
    return stats


def default_instances() -> list[PlanInstance]:
    """The seeded certification battery.

    Full-size statistics for every model in ``models/specs.py``, the
    Transformer-XL-shaped synthetic, random instances spanning sizes
    1..10^7, and the degenerate corners (zero-norm layers, single-layer
    models).  Small instances double as the brute-force reference set.
    """
    instances = [
        PlanInstance(f"spec:{name}",
                     synthetic_stats_for_spec(build_spec(name)))
        for name in available_specs()
    ]
    instances.append(PlanInstance("txl-like", _txl_like()))
    rng = np.random.default_rng(2024)
    for i in range(6):
        layer_count = int(rng.integers(2, 28))
        stats = [
            LayerStat(f"l{j}", int(10 ** rng.uniform(0, 7)),
                      float(rng.uniform(0.0, 50.0)))
            for j in range(layer_count)
        ]
        instances.append(PlanInstance(f"random{i}", stats))
    for i in range(4):  # guaranteed-small: brute-force eligible
        layer_count = int(rng.integers(2, SMALL_INSTANCE_LAYERS + 1))
        stats = [
            LayerStat(f"s{j}", int(10 ** rng.uniform(0, 6)),
                      float(rng.uniform(0.0, 20.0)))
            for j in range(layer_count)
        ]
        instances.append(PlanInstance(f"small{i}", stats))
    instances.append(PlanInstance(
        "spec:resnet50:head",
        synthetic_stats_for_spec(build_spec("resnet50"))[:SMALL_INSTANCE_LAYERS]))
    instances.append(PlanInstance("zero-norm", [
        LayerStat("dead", 100_000, 0.0),
        LayerStat("alive", 50_000, 3.0),
    ]))
    instances.append(PlanInstance("single-layer",
                                  [LayerStat("only", 123_457, 7.0)]))
    return instances


Assigner = Callable[..., "dict[str, int]"]


class PlanSolutions:
    """One battery's solver runs and exact optima, each computed once.

    Checks handed one shared instance read the same record; a check
    called without one makes its own, i.e. still runs standalone.
    """

    def __init__(self, assigners: "Mapping[str, Assigner]") -> None:
        self.assigners = assigners
        self._solved: dict[tuple, tuple] = {}
        self._optima: dict[tuple, dict[str, int]] = {}

    def solve(self, solver: str, instance: PlanInstance, alpha: float
              ) -> "tuple[dict[str, int] | None, list[Finding]]":
        """The assignment, or ``None`` and the BWP002 finding the crash
        became (crashes are findings, not exceptions)."""
        key = (solver, instance, alpha)
        if key not in self._solved:
            out = CellFindings("plan", PLAN_RULES, solver)
            bits = None
            try:
                bits = self.assigners[solver](instance.stats, alpha=alpha)
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                out.emit("BWP002",
                         f"{instance.name} alpha={alpha}: solver raised "
                         f"{type(exc).__name__}: {exc}")
            self._solved[key] = (bits, out)
        return self._solved[key]

    def complete(self, solver: str, instance: PlanInstance, alpha: float
                 ) -> "dict[str, int] | None":
        """The assignment if it covers exactly the instance's layers
        (breakage is :func:`certify_solver`'s finding, nobody else's)."""
        bits, _ = self.solve(solver, instance, alpha)
        if bits is None or set(bits) != {s.name for s in instance.stats}:
            return None
        return bits

    def optimum(self, instance: PlanInstance, alpha: float) -> "dict[str, int]":
        if (instance, alpha) not in self._optima:
            self._optima[instance, alpha] = brute_force_assign(
                instance.stats, alpha=alpha)
        return self._optima[instance, alpha]


def certify_solver(solver: str, assigner: Assigner,
                   instance: PlanInstance, alpha: float,
                   solutions: PlanSolutions | None = None,
                   ) -> "tuple[dict[str, int] | None, list[Finding]]":
    """BWP001/BWP002/BWP004 for one (solver, instance, alpha) cell."""
    solutions = solutions or PlanSolutions({solver: assigner})
    bits, crashed = solutions.solve(solver, instance, alpha)
    if bits is None:
        return None, crashed
    out = CellFindings("plan", PLAN_RULES, solver)

    expected = {s.name for s in instance.stats}
    if set(bits) != expected:
        out.emit("BWP002", f"{instance.name} alpha={alpha}: assignment covers "
                           f"{len(bits)} layers, instance has {len(expected)}")
        return bits, out
    stray = sorted({b for b in bits.values() if b not in BITWIDTHS})
    if stray:
        out.emit("BWP002",
                 f"{instance.name} alpha={alpha}: emitted bit-width(s) "
                 f"{stray} outside the requested ladder {BITWIDTHS}")
    static_cost = assignment_cost_bits(
        instance.stats, {s.name: REFERENCE_BITS for s in instance.stats})
    cost = assignment_cost_bits(instance.stats, bits)
    if cost > static_cost:
        out.emit("BWP002",
                 f"{instance.name} alpha={alpha}: transmits {cost} bits, "
                 f"worse than the uniform static {static_cost}")
    if not certify_assignment(instance.stats, bits, alpha):
        out.emit("BWP001",
                 f"{instance.name} alpha={alpha}: exact error exceeds the "
                 f"alpha*E4 budget (float rounding masked the violation)")
    for width in sorted(set(bits.values())):
        try:
            bucket = resolve_bucket(width)
            CompressionSpec("qsgd", bits=width, bucket_size=bucket)
        except (ValueError, KeyError) as exc:
            out.emit("BWP004",
                     f"{instance.name} alpha={alpha}: emitted width {width} "
                     f"does not resolve to an executable spec: {exc}")
    return bits, out


def certify_optimality(solver: str, assigner: Assigner,
                       instances: Iterable[PlanInstance],
                       alphas: Sequence[float] = DEFAULT_ALPHAS,
                       ratchet: Mapping[str, float] | None = None,
                       solutions: PlanSolutions | None = None,
                       ) -> list[Finding]:
    """BWP003: worst-case byte overhead vs the exact optimum, ratcheted."""
    bound = (ratchet or OPTIMALITY_RATCHET).get(solver)
    if bound is None:
        return []
    solutions = solutions or PlanSolutions({solver: assigner})
    out = CellFindings("plan", PLAN_RULES, solver)
    worst = 1.0
    worst_at = ""
    for instance in instances:
        if not instance.small:
            continue
        for alpha in alphas:
            opt_cost = assignment_cost_bits(
                instance.stats, solutions.optimum(instance, alpha))
            bits = solutions.complete(solver, instance, alpha)
            if bits is None:
                continue
            ratio = assignment_cost_bits(instance.stats, bits) / opt_cost
            if ratio > worst:
                worst, worst_at = ratio, f"{instance.name} alpha={alpha}"
    if worst > bound:
        out.emit("BWP003",
                 f"worst-case overhead {worst:.3f}x over the brute-force "
                 f"optimum (at {worst_at}) exceeds the ratcheted bound "
                 f"{bound:.2f}x")
    return out


def certify_monotonicity(solver: str, assigner: Assigner,
                         instance: PlanInstance,
                         alphas: Sequence[float] = DEFAULT_ALPHAS,
                         solutions: PlanSolutions | None = None
                         ) -> list[Finding]:
    """BWP005: transmitted bytes must not grow with the error budget."""
    solutions = solutions or PlanSolutions({solver: assigner})
    costs: list[tuple[float, int]] = []
    for alpha in sorted(alphas):
        bits = solutions.complete(solver, instance, alpha)
        if bits is None:
            return []
        costs.append((alpha, assignment_cost_bits(instance.stats, bits)))
    out = CellFindings("plan", PLAN_RULES, solver)
    for (a_lo, c_lo), (a_hi, c_hi) in zip(costs, costs[1:]):
        if c_hi > c_lo:
            out.emit("BWP005",
                     f"{instance.name}: alpha={a_hi} transmits {c_hi} bits, "
                     f"more than the {c_lo} at the tighter alpha={a_lo}")
    return out


def _stationary_grads() -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(0)
    return {
        "embed.weight": rng.normal(scale=0.01,
                                   size=(2000, 16)).astype(np.float32),
        "blocks.0.fc.weight": rng.normal(size=(64, 64)).astype(np.float32),
        "blocks.1.fc.weight": rng.normal(size=(48, 64)).astype(np.float32),
    }


def certify_controller_stability(
    solver: str,
    controller_cls: type[AdaptiveController] = AdaptiveController,
) -> list[Finding]:
    """BWP006: replay ``AdaptiveController.reassign`` under stationary stats.

    Feeds the *same* gradient dict every step: the accumulated statistics
    of every period are identical, so a deterministic solver must emit
    identical assignments each respec — and the per-layer specs written
    into the config must agree with the emitted assignment (bits match,
    bucket resolves through :func:`resolve_bucket`).
    """
    out = CellFindings("plan", PLAN_RULES, solver)
    config = CGXConfig.cgx_default()
    controller = controller_cls(config, method=solver, period=RESPEC_PERIOD)
    grads = _stationary_grads()
    observed: list[dict[str, int]] = []
    for _ in range(2 * RESPEC_PERIOD):
        if controller.observe(dict(grads)):
            observed.append(dict(controller.assignments))
    if len(observed) < 2:
        out.emit("BWP006",
                 f"controller produced {len(observed)} reassignments in "
                 f"{2 * RESPEC_PERIOD} stationary steps "
                 f"(period={RESPEC_PERIOD})")
        return out
    if observed[0] != observed[1]:
        flipped = sorted(name for name in observed[0]
                         if observed[0].get(name) != observed[1].get(name))
        out.emit("BWP006",
                 f"stationary statistics flipped assignments across respecs "
                 f"(layers {flipped})")
    for name, width in observed[-1].items():
        spec = config.per_layer.get(name)
        if spec is None:
            out.emit("BWP006",
                     f"assignment names {name!r} but no per-layer spec was "
                     f"written")
            continue
        if spec.bits != width or spec.bucket_size != resolve_bucket(width):
            out.emit("BWP006",
                     f"per-layer spec for {name!r} carries bits={spec.bits} "
                     f"bucket={spec.bucket_size}, assignment says {width} "
                     f"(bucket {resolve_bucket(width)})")
    return out


def certify_plan_contracts(
    solver: str,
    bits: "dict[str, int]",
    instance: PlanInstance,
    alpha: float,
    method: str = "qsgd",
    registry: "dict[str, type[Compressor]] | None" = None,
) -> list[Finding]:
    """BWP007: every planned width is declared by the method's contract."""
    registry = registry or default_registry()
    cls = registry.get(method)
    contract = getattr(cls, "contract", None) if cls else None
    out = CellFindings("plan", PLAN_RULES, solver)
    if contract is None:
        out.emit("BWP007",
                 f"{instance.name} alpha={alpha}: plan targets method "
                 f"{method!r} which has no registered contract")
        return out
    if contract.supported_bits is None:
        out.emit("BWP007",
                 f"{instance.name} alpha={alpha}: plan assigns bit-widths "
                 f"to method {method!r} whose contract declares no "
                 f"supported_bits")
        return out
    unsupported = sorted({b for b in bits.values()
                          if b not in contract.supported_bits})
    if unsupported:
        out.emit("BWP007",
                 f"{instance.name} alpha={alpha}: plan names bits "
                 f"{unsupported} not in {method!r}'s declared supported_bits "
                 f"{tuple(contract.supported_bits)}")
    return out


def verify_plans() -> list[Finding]:
    """Run the full BWP battery; everything is seeded and deterministic.

    Certifies the real solvers (:data:`ASSIGNERS`) over
    :func:`default_instances` at :data:`DEFAULT_ALPHAS`; tests hand
    broken solvers, registries and controllers to the per-cell checks.
    """
    instances = default_instances()
    solutions = PlanSolutions(ASSIGNERS)
    findings: list[Finding] = []
    for solver in sorted(ASSIGNERS):
        assigner = ASSIGNERS[solver]
        for instance in instances:
            for alpha in DEFAULT_ALPHAS:
                bits, cell = certify_solver(solver, assigner, instance, alpha,
                                            solutions=solutions)
                findings.extend(cell)
                if bits is not None and not cell:
                    findings.extend(certify_plan_contracts(
                        solver, bits, instance, alpha))
            findings.extend(certify_monotonicity(
                solver, assigner, instance, solutions=solutions))
        findings.extend(certify_optimality(solver, assigner, instances,
                                           solutions=solutions))
        findings.extend(certify_controller_stability(solver))
    return findings
