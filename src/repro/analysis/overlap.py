"""Overlap-safety certifier (Pillar 9, rules OVL001..OVL006).

The overlapped engine mode (:meth:`~repro.core.engine.CommunicationEngine
.reduce_overlapped`) enqueues each layer's reduction as its backward
finishes, fuses transmission buckets and drains them first-needed-first-
sent.  That concurrency buys step time but opens failure modes the
sequential data path cannot have: an optimizer reading a gradient whose
reduction has not landed, a layer reduced twice (or dropped) by the
bucket fusion, a starved bucket, error-feedback residuals touched by two
in-flight reductions.  This pass certifies the overlapped schedule on
the real data path, cell by cell.

``OVL001``  use-before-reduce: a gradient consumed before its bucket's
            reduction landed — the happens-before chain grad_ready ->
            reduce_enqueued -> reduce_landed -> grad_consumed must hold
            per layer per step, in event positions and simulated time,
            including adaptive-respec and quorum-demotion steps.
``OVL002``  fusion conservation: the buckets of one step must partition
            the layer set exactly once, and the bucket byte accounting
            (dense and wire) must match both the per-layer spec arithmetic
            and the serialized payload ground truth.
``OVL003``  priority inversion: the launch order disagrees with the
            first-needed-first-sent discipline (smallest
            (first_needed, min_index) among sealed buckets), or the
            single channel overlapped two transfers.
``OVL004``  in-flight state hazard: a keyed compressor-state access
            (error-feedback residuals, quorum carries) lands outside any
            bucket's execution span, one state key is touched by two
            buckets in one step, or the happens-before race detector
            (RACE rules) finds an unordered conflict in the overlapped
            timeline.
``OVL005``  overlap ineffectiveness: under injected uniform delays the
            certified step time must stay within the makespan bound
            ``max(compute, comm) + max(largest transfer, fill) + eps``
            and beat the synchronize-at-the-end baseline by the expected
            margin.
``OVL006``  a function on the optimizer/trainer path reads ``.grad``
            without calling a completion-barrier API and without the
            ``@grad_consumer`` marker — a consumer the barrier cannot
            see (static AST pass).

The battery sweeps every reduction scheme (plus the quorum reducer)
across world sizes and two model shapes, four steps per cell: a normal
step, an adaptive respec, a quorum demotion and a carry drain — the
schedule reshapes the certifier must survive.  One extra cell drives the
full trainer (module grad-ready hooks, DDP barrier) end to end.
"""

from __future__ import annotations

import ast
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.collectives.timing import SCHEMES
from repro.collectives.trace import OverlapEvent, ScheduleTrace, capture
from repro.compression import CompressionSpec
from repro.core.config import CGXConfig
from repro.core.engine import CommunicationEngine
from repro.core.overlap import OverlapDelays, OverlapReport

from .findings import Finding, sort_findings
from .rules import SourceFile, call_name, lint_roots

__all__ = ["OVL_RULES", "OverlapCase", "overlap_cases", "certify_case",
           "certify_trainer", "analyze_overlap_trace", "lint_grad_consumers",
           "lint_grad_consumer_source", "consumer_default_roots",
           "verify_overlap"]

OVL_RULES = {
    "OVL001": "gradient consumed before its reduction landed",
    "OVL002": "bucket fusion does not conserve layers or bytes",
    "OVL003": "launch order violates first-needed-first-sent priority",
    "OVL004": "compressor state touched outside its bucket's execution",
    "OVL005": "overlapped step time misses the makespan bound",
    "OVL006": ".grad consumer bypasses the completion barrier",
}

#: steps each battery cell runs: a clean step, an adaptive respec, a
#: quorum demotion, and a full-participation drain
CELL_STEPS = 4

#: injected uniform delays: per-layer backward interval and per-bucket
#: transfer, chosen so compute and communication are balanced (the
#: regime where overlap pays the most and the bound is tightest)
UNIFORM_COMPUTE = 1e-3
UNIFORM_COMM = 2e-3

#: float-comparison slack on simulated-time arithmetic
TIME_EPS = 1e-9


@dataclass(frozen=True)
class OverlapCase:
    """One battery cell: a scheme, a world size and a model shape."""

    scheme: str
    world: int
    model: str

    @property
    def path(self) -> str:
        return f"<overlap:{self.scheme}@world={self.world}/{self.model}>"

    @property
    def cell(self) -> tuple[str, int, str]:
        """``Finding.semantic``'s (scheme, world, path) for this cell."""
        return self.scheme, self.world, self.path


# -- the battery's models and configuration -----------------------------------

def _model_layers(model: str) -> list[tuple[str, int]]:
    """(name, numel) per layer, in forward (registration) order.

    ``stack`` is eight equal compressed layers (uniform buckets);
    ``mixed`` adds a keyword-filtered bias and a below-threshold tensor,
    so fp32 per-layer packages ride the same bucket machinery.
    """
    stack = [(f"layer{i}", 96) for i in range(8)]
    if model == "stack":
        return stack
    if model == "mixed":
        return stack + [("fc.bias", 12), ("tiny", 16)]
    raise ValueError(f"unknown battery model {model!r}")


def _cell_config(scheme: str) -> CGXConfig:
    return CGXConfig(
        compression=CompressionSpec("qsgd", bits=4, bucket_size=32,
                                    error_feedback=True),
        scheme="sra" if scheme == "partial" else scheme,
        fusion_bytes=768,          # two 96-element fp32 layers per bucket
        min_compress_numel=64,
    )


def _node_of(world: int) -> list[int]:
    """Two-node placement for the hierarchical scheme."""
    return [0 if r < (world + 1) // 2 else 1 for r in range(world)]


def overlap_cases(worlds: Sequence[int] = (2, 3, 4)) -> list[OverlapCase]:
    """Every (scheme x world x model) battery cell."""
    schemes = SCHEMES + ("partial",)
    return [OverlapCase(scheme, world, model)
            for scheme in schemes
            for world in worlds
            for model in ("stack", "mixed")]


# -- running one cell ---------------------------------------------------------

def _consume_all(names: Iterable[str], step: int, t: float) -> None:
    """Emit the consumption events the DDP barrier would emit.

    Mirrors :meth:`~repro.core.ddp.CGXDistributedDataParallel
    .mark_consumed` for engine-driven cells that have no DDP wrapper.
    """
    from repro.collectives.trace import emit_overlap

    for name in names:
        emit_overlap("grad_consumed", step, t, layer=name)


def _run_cell(case: OverlapCase) -> tuple[ScheduleTrace,
                                          list[OverlapReport],
                                          OverlapDelays]:
    """Drive :meth:`reduce_overlapped` through the four-step campaign."""
    layers = _model_layers(case.model)
    names = [name for name, _ in layers]
    config = _cell_config(case.scheme)
    node_of = _node_of(case.world) if case.scheme == "hier" else None
    engine = CommunicationEngine(config, node_of=node_of)
    rng = np.random.default_rng(7)
    # stable per-cell seed (hash() of a str-carrying tuple is salted per
    # process, which would certify different data on every run)
    grad_rng = np.random.default_rng(zlib.crc32(case.path.encode()))
    delays = OverlapDelays.uniform(names, compute=UNIFORM_COMPUTE,
                                   comm_latency=UNIFORM_COMM,
                                   comm_per_byte=0.0)
    ready_order = list(reversed(names))
    quorum = list(range(case.world - 1)) if case.world > 1 else [0]

    reports: list[OverlapReport] = []
    with capture() as trace:
        for step in range(CELL_STEPS):
            per_worker = [
                {name: grad_rng.normal(size=numel).astype(np.float32)
                 for name, numel in layers}
                for _ in range(case.world)
            ]
            # step 1 reshapes the plan (adaptive respec); the quorum
            # reducer takes over on step 2 (and step 1 for the partial
            # column); step 3 drains the carries at full participation
            if step == 1:
                config.per_layer["layer3"] = CompressionSpec(
                    "qsgd", bits=8, bucket_size=32, error_feedback=True)
            demoted = step == 2 or (case.scheme == "partial" and step == 1)
            participants = quorum if demoted else None
            _, report = engine.reduce_overlapped(
                per_worker, rng, ready_order=ready_order,
                participants=participants,
                average_over=len(quorum) if demoted else None,
                step=step, delays=delays, measure_payload=True)
            _consume_all(names, step, report.overlapped_time)
            reports.append(report)
    return trace, reports, delays


# -- OVL001: the per-layer happens-before chain -------------------------------

def _events_by_step(trace: ScheduleTrace
                    ) -> dict[int, dict[str, dict[str, OverlapEvent]]]:
    """step -> kind -> (layer or bucket name) -> event."""
    index: dict[int, dict[str, dict[str, OverlapEvent]]] = {}
    for event in trace.overlap_events:
        key = event.layer if event.kind in ("grad_ready", "grad_consumed") \
            else event.bucket
        index.setdefault(event.step, {}).setdefault(event.kind, {})[key] = \
            event
    return index


def check_use_before_reduce(case: OverlapCase, trace: ScheduleTrace,
                            reports: Sequence[OverlapReport],
                            names: Sequence[str],
                            step_ids: Sequence[int] | None = None
                            ) -> list[Finding]:
    """OVL001 over every (step, layer) of one cell's trace.

    ``step_ids`` maps each report to the step number its events carry
    (the trainer numbers steps from 1; the engine battery from 0).
    """
    findings: list[Finding] = []
    by_step = _events_by_step(trace)
    if step_ids is None:
        step_ids = list(range(len(reports)))

    def chain_violation(step: int, layer: str, detail: str) -> None:
        findings.append(Finding.semantic(
            "overlap", "OVL001",
            f"step {step}, layer {layer!r}: {detail}", *case.cell))

    for step, report in zip(step_ids, reports):
        kinds = by_step.get(step, {})
        ready = kinds.get("grad_ready", {})
        enqueued = kinds.get("reduce_enqueued", {})
        landed = kinds.get("reduce_landed", {})
        consumed = kinds.get("grad_consumed", {})
        bucket_of = {layer: bucket.name
                     for bucket in report.buckets
                     for layer in bucket.layer_names}
        for layer in names:
            bucket = bucket_of.get(layer)
            if bucket is None:
                chain_violation(step, layer,
                                "no bucket carries this layer's reduction")
                continue
            r, e = ready.get(layer), enqueued.get(bucket)
            ld, c = landed.get(bucket), consumed.get(layer)
            missing = [label for label, ev in
                       (("grad_ready", r), ("reduce_enqueued", e),
                        ("reduce_landed", ld), ("grad_consumed", c))
                       if ev is None]
            if missing:
                chain_violation(
                    step, layer,
                    f"lifecycle event(s) {', '.join(missing)} missing "
                    f"from the trace")
                continue
            assert r and e and ld and c
            for before, after, what in (
                    (r, e, "enqueued before its gradient was ready"),
                    (e, ld, "landed before it was enqueued"),
                    (ld, c, "consumed before its reduction landed")):
                if after.t < before.t - TIME_EPS or after.pos < before.pos:
                    chain_violation(
                        step, layer,
                        f"{what} (t {before.t:.6f} -> {after.t:.6f}, "
                        f"pos {before.pos} -> {after.pos})")
    return findings


# -- OVL002: fusion conservation ----------------------------------------------

def check_fusion_conservation(case: OverlapCase,
                              reports: Sequence[OverlapReport],
                              layers: Sequence[tuple[str, int]]
                              ) -> list[Finding]:
    """OVL002: buckets partition the layers; byte accounting is exact."""
    findings: list[Finding] = []
    expected = sorted(name for name, _ in layers)
    numel_of = dict(layers)
    for step, report in enumerate(reports):
        covered = [layer for bucket in report.buckets
                   for layer in bucket.layer_names]
        if sorted(covered) != expected:
            findings.append(Finding.semantic(
                "overlap", "OVL002",
                f"step {step}: buckets cover {sorted(covered)} but the "
                f"model has {expected} — a layer reduced twice or "
                f"dropped", *case.cell))
            continue
        for bucket in report.buckets:
            dense = sum(numel_of[layer] * 4 for layer in bucket.layer_names)
            if bucket.dense_bytes != dense:
                findings.append(Finding.semantic(
                    "overlap", "OVL002",
                    f"step {step}, {bucket.name}: dense accounting "
                    f"{bucket.dense_bytes} B != member total {dense} B",
                    *case.cell))
            claimed = sum(pkg.spec.wire_bytes(pkg.numel)
                          for pkg in bucket.packages)
            if bucket.wire_bytes != claimed:
                findings.append(Finding.semantic(
                    "overlap", "OVL002",
                    f"step {step}, {bucket.name}: wire accounting "
                    f"{bucket.wire_bytes} B != per-layer spec total "
                    f"{claimed} B", *case.cell))
            if bucket.measured_bytes >= 0 \
                    and bucket.measured_bytes != claimed:
                findings.append(Finding.semantic(
                    "overlap", "OVL002",
                    f"step {step}, {bucket.name}: serialized payload "
                    f"measures {bucket.measured_bytes} B but the spec "
                    f"claims {claimed} B", *case.cell))
    return findings


# -- OVL003: launch-priority discipline ---------------------------------------

def check_priority(case: OverlapCase,
                   reports: Sequence[OverlapReport]) -> list[Finding]:
    """OVL003: replay the channel and compare against the recorded order."""
    findings: list[Finding] = []
    for step, report in enumerate(reports):
        recorded = sorted(report.buckets, key=lambda b: b.launch_t)
        for bucket in report.buckets:
            if bucket.launch_t < bucket.ready_t - TIME_EPS:
                findings.append(Finding.semantic(
                    "overlap", "OVL003",
                    f"step {step}, {bucket.name}: launched at "
                    f"{bucket.launch_t:.6f} before sealing at "
                    f"{bucket.ready_t:.6f}", *case.cell))
        for prev, nxt in zip(recorded, recorded[1:]):
            if nxt.launch_t < prev.landed_t - TIME_EPS:
                findings.append(Finding.semantic(
                    "overlap", "OVL003",
                    f"step {step}: {nxt.name} launched at "
                    f"{nxt.launch_t:.6f} while {prev.name} still held "
                    f"the channel until {prev.landed_t:.6f}", *case.cell))
        # replay: at each free point the sealed bucket with the smallest
        # (first_needed, min_index) must go next.  Seal comparisons are
        # exact (no epsilon) to mirror the scheduler's own predicate —
        # a tolerance here would "seal" buckets the channel could not
        # actually see and report phantom inversions on float near-ties
        remaining = list(report.buckets)
        for bucket in recorded:
            sealed = [b for b in remaining if b.ready_t <= bucket.launch_t]
            if sealed:
                best = min(sealed,
                           key=lambda b: (b.first_needed, b.min_index))
                if (best.first_needed, best.min_index) < \
                        (bucket.first_needed, bucket.min_index):
                    findings.append(Finding.semantic(
                        "overlap", "OVL003",
                        f"step {step}: {bucket.name} (first_needed "
                        f"{bucket.first_needed}) launched ahead of "
                        f"sealed {best.name} (first_needed "
                        f"{best.first_needed}) — priority inversion",
                        *case.cell))
            remaining.remove(bucket)
    return findings


# -- OVL004: in-flight compressor-state attribution ---------------------------

def check_state_attribution(case: OverlapCase, trace: ScheduleTrace,
                            reports: Sequence[OverlapReport]
                            ) -> list[Finding]:
    """OVL004: state accesses stay inside exactly one bucket's execution."""
    from repro.collectives.trace import BufferAccess

    from .races import analyze_trace

    findings: list[Finding] = []
    spans: list[tuple[int, str, int, int]] = []   # (step, bucket, lo, hi)
    for step, report in enumerate(reports):
        for bucket in report.buckets:
            lo, hi = bucket.exec_span
            if lo < 0:
                findings.append(Finding.semantic(
                    "overlap", "OVL004",
                    f"step {step}, {bucket.name}: no execution span "
                    f"recorded — the reduction never ran", *case.cell))
                continue
            spans.append((step, bucket.name, lo, hi))

    # each state key belongs to at most one bucket per step (exactly the
    # <=1-in-flight-reduction-per-residual invariant), and every state
    # access falls inside some bucket's execution
    owners: dict[tuple[int, str], set[str]] = {}
    for pos, item in enumerate(trace.timeline):
        if not isinstance(item, BufferAccess) or item.space != "state":
            continue
        containing = [(step, name) for step, name, lo, hi in spans
                      if lo <= pos < hi]
        if not containing:
            findings.append(Finding.semantic(
                "overlap", "OVL004",
                f"state key {item.buffer} accessed at timeline position "
                f"{pos}, outside every bucket's execution span", *case.cell))
            continue
        for step, name in containing:
            owners.setdefault((step, item.buffer), set()).add(name)
    for (step, key), buckets in sorted(owners.items()):
        if len(buckets) > 1:
            findings.append(Finding.semantic(
                "overlap", "OVL004",
                f"step {step}: state key {key} touched by "
                f"{len(buckets)} buckets ({', '.join(sorted(buckets))}) "
                f"— two in-flight reductions share residual state",
                *case.cell))

    # the happens-before race detector over the overlapped timeline:
    # an unordered conflict the span bookkeeping cannot express
    race_scheme = "sra" if case.scheme == "partial" else case.scheme
    for race in analyze_trace(trace, race_scheme, case.world):
        findings.append(Finding.semantic(
            "overlap", "OVL004",
            f"happens-before conflict in the overlapped timeline: "
            f"[{race.rule}] {race.message}", *case.cell))
    return findings


# -- OVL005: makespan bound and overlap effectiveness -------------------------

#: the uniform-delay battery keeps compute and communication balanced,
#: so an overlapped step must beat the sequential baseline by at least
#: this factor (B buckets pipeline down to ~(1+1/B)/2 of sequential)
EFFECTIVENESS_FACTOR = 0.8


def check_makespan(case: OverlapCase, reports: Sequence[OverlapReport]
                   ) -> list[Finding]:
    """OVL005: bound + effectiveness under the injected uniform delays."""
    findings: list[Finding] = []
    for step, report in enumerate(reports):
        if not report.buckets:
            continue
        comm = [b.landed_t - b.launch_t for b in report.buckets]
        fill = min(b.ready_t for b in report.buckets)
        bound = max(report.compute_end, report.comm_total) \
            + max(max(comm), fill) + 1e-6
        if report.overlapped_time > bound:
            findings.append(Finding.semantic(
                "overlap", "OVL005",
                f"step {step}: overlapped makespan "
                f"{report.overlapped_time:.6f}s exceeds the bound "
                f"{bound:.6f}s (compute {report.compute_end:.6f}s, "
                f"comm {report.comm_total:.6f}s) — the channel idled "
                f"with sealed buckets pending", *case.cell))
        limit = EFFECTIVENESS_FACTOR * report.sequential_time
        if len(report.buckets) >= 2 and report.overlapped_time > limit:
            findings.append(Finding.semantic(
                "overlap", "OVL005",
                f"step {step}: overlapped step {report.overlapped_time:.6f}s"
                f" is not {EFFECTIVENESS_FACTOR:.1f}x under the sequential "
                f"{report.sequential_time:.6f}s — overlap bought "
                f"nothing", *case.cell))
    return findings


# -- putting one cell together ------------------------------------------------

def analyze_overlap_trace(case: OverlapCase, trace: ScheduleTrace,
                          reports: Sequence[OverlapReport],
                          layers: Sequence[tuple[str, int]]) -> list[Finding]:
    """All dynamic OVL rules over one cell's captured campaign."""
    names = [name for name, _ in layers]
    findings: list[Finding] = []
    findings.extend(check_use_before_reduce(case, trace, reports, names))
    findings.extend(check_fusion_conservation(case, reports, layers))
    findings.extend(check_priority(case, reports))
    findings.extend(check_state_attribution(case, trace, reports))
    findings.extend(check_makespan(case, reports))
    return sort_findings(findings)


def certify_case(case: OverlapCase) -> list[Finding]:
    """Run one battery cell and certify its trace; [] means clean."""
    trace, reports, _ = _run_cell(case)
    return analyze_overlap_trace(case, trace, reports,
                                 _model_layers(case.model))


def certify_trainer(world: int = 3, steps: int = 2) -> list[Finding]:
    """One end-to-end cell through the real trainer and DDP barrier.

    Exercises the module grad-ready hooks, the trainer's completed
    ready order, :meth:`synchronize_overlapped` and
    :meth:`mark_consumed` — the integration the engine-driven battery
    cells stub out.
    """
    from repro.training.tasks import make_task
    from repro.training.trainer import DataParallelTrainer

    case = OverlapCase("sra", world, "trainer-mlp")
    config = _cell_config("sra")
    task = make_task("mlp", batch_size=8)
    trainer = DataParallelTrainer(task, world_size=world, config=config,
                                  seed=0, overlap=True)
    names = [name for name, _ in trainer.replicas[0].named_parameters()]
    reports: list[OverlapReport] = []
    step_ids: list[int] = []
    with capture() as trace:
        for _ in range(steps):
            trainer.train_step()
            report = trainer.ddp.last_report
            assert isinstance(report, OverlapReport)
            reports.append(report)
            step_ids.append(trainer._step_index)
    findings: list[Finding] = []
    findings.extend(check_use_before_reduce(
        case, trace, reports, names, step_ids=step_ids))
    layers = [(name, param.numel) for name, param
              in trainer.replicas[0].named_parameters()]
    findings.extend(check_fusion_conservation(case, reports, layers))
    findings.extend(check_priority(case, reports))
    findings.extend(check_state_attribution(case, trace, reports))
    return sort_findings(findings)


# -- OVL006: static AST pass over the gradient-consumer path ------------------

#: calling any of these inside a function counts as running (or being)
#: the completion barrier before the .grad reads
_BARRIER_CALLS = {"synchronize", "synchronize_overlapped", "reduce",
                  "reduce_overlapped", "mark_consumed"}

#: functions whose .grad access is definitionally safe: gradient
#: producers and the reset path, never post-reduction consumers
_EXEMPT_FUNCTIONS = {"zero_grad", "backward", "accumulate_grad"}


def consumer_default_roots() -> tuple[str, ...]:
    """The modules OVL006 audits: every .grad consumer downstream of the
    barrier — the trainer loop, the DDP wrapper and the optimizers."""
    import repro.core.ddp
    import repro.nn.optim
    import repro.training.trainer

    return (os.path.abspath(repro.training.trainer.__file__),
            os.path.abspath(repro.core.ddp.__file__),
            os.path.abspath(repro.nn.optim.__file__))


def _is_grad_consumer(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in func.decorator_list:
        name = deco.id if isinstance(deco, ast.Name) else (
            deco.attr if isinstance(deco, ast.Attribute) else "")
        if name == "grad_consumer":
            return True
    return False


def lint_grad_consumer_source(source: str, path: str) -> list[Finding]:
    """OVL006 over one file's source text."""
    findings: list[Finding] = []
    file = SourceFile(source, path)
    for func, nodes in file.functions():
        if func.name in _EXEMPT_FUNCTIONS or _is_grad_consumer(func):
            continue
        grad_reads = [
            node for node in nodes
            if isinstance(node, ast.Attribute) and node.attr == "grad"
            and isinstance(node.ctx, ast.Load)
        ]
        if not grad_reads:
            continue
        calls = {call_name(node)[1] for node in nodes
                 if isinstance(node, ast.Call)}
        if calls & _BARRIER_CALLS:
            continue
        first = min(grad_reads, key=lambda n: (n.lineno, n.col_offset))
        findings.append(file.finding(
            "OVL006", first,
            f"function {func.name!r} reads .grad without a "
            f"completion-barrier call "
            f"({'/'.join(sorted(_BARRIER_CALLS))}) and without "
            f"@grad_consumer — in overlapped mode it may observe "
            f"an unreduced gradient", "overlap"))
    return findings


def lint_grad_consumers(roots: Sequence[str] | None = None) -> list[Finding]:
    """OVL006 over the consumer-path modules (or explicit files/dirs),
    occurrence-numbered for stable baseline fingerprints."""
    return lint_roots(roots if roots is not None
                      else consumer_default_roots(),
                      lint_grad_consumer_source)


# -- the full battery ---------------------------------------------------------

def verify_overlap(worlds: tuple[int, ...] = (2, 3, 4),
                   with_consumer_lint: bool = True) -> list[Finding]:
    """Certify every (scheme x world x model) cell; [] means clean."""
    findings: list[Finding] = []
    for case in overlap_cases(worlds):
        findings.extend(certify_case(case))
    findings.extend(certify_trainer())
    if with_consumer_lint:
        findings.extend(lint_grad_consumers())
    return sort_findings(findings)
