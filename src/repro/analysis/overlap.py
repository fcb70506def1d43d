"""Overlap-safety certifier (Pillar 9, rules OVL001..OVL006).

The overlapped engine mode (:meth:`~repro.core.engine.CommunicationEngine
.reduce_overlapped`) enqueues each layer's reduction as its backward
finishes, fuses transmission buckets and drains them first-needed-first-
sent.  This pass certifies that schedule on the real data path: every
cell of the cell table x two model shapes runs a normal step, an
adaptive respec, a quorum demotion and a carry drain, and one extra
cell drives the full trainer (module grad-ready hooks, DDP barrier).
Long form: ``docs/analysis.md`` pillar 9.  The rules:

"""

from __future__ import annotations

import ast
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.collectives import (SINGLE_MEMBER_CELLS, SchemeCell,
                               default_quorum, scheme_cell, scheme_cells)
from repro.collectives.timing import SCHEMES
from repro.collectives.trace import (BufferAccess, OverlapEvent,
                                     ScheduleTrace, capture, emit_overlap)
from repro.compression import CompressionSpec, make_compressor
from repro.core.config import CGXConfig
from repro.core.engine import CommunicationEngine, _gather_package
from repro.core.overlap import OverlapBucket, OverlapDelays, OverlapReport
from repro.core.serialization import measured_wire_bytes

from .findings import CellFindings, Finding, rule_table, sort_findings
from .races import analyze_trace
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
__doc__ = rule_table(__doc__, OVL_RULES)

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
    def row(self) -> SchemeCell:
        """This cell's table row (the explicit one where there is one)."""
        return SINGLE_MEMBER_CELLS.get((self.scheme, self.world)) \
            or scheme_cell(self.scheme, self.world)

    @property
    def engine_scheme(self) -> str:
        """What the engine runs: the quorum column is the engine's
        ``participants`` path over SRA."""
        return "sra" if self.row.participants is not None else self.scheme

    def findings(self) -> CellFindings:
        """An empty collector bound to this cell."""
        return CellFindings("overlap", OVL_RULES, self.scheme, self.world,
                            self.path)


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
        scheme=scheme,
        fusion_bytes=768,          # two 96-element fp32 layers per bucket
        min_compress_numel=64,
    )


def overlap_cases(worlds: Sequence[int] = (2, 3, 4)) -> list[OverlapCase]:
    """Every (scheme x world x model) battery cell."""
    return [OverlapCase(cell.scheme, cell.world, model)
            for cell in scheme_cells(worlds, (*SCHEMES, "partial"))
            for model in ("stack", "mixed")]


# -- running one cell ---------------------------------------------------------

def _consume_all(names: Iterable[str], step: int, t: float) -> None:
    """Emit the consumption events the DDP barrier would emit.

    Mirrors :meth:`~repro.core.ddp.CGXDistributedDataParallel
    .mark_consumed` for engine-driven cells that have no DDP wrapper.
    """
    for name in names:
        emit_overlap("grad_consumed", step, t, layer=name)


#: one worker's named gradients for one step
Grads = dict[str, np.ndarray]


def _run_cell(case: OverlapCase) -> tuple[ScheduleTrace,
                                          list[OverlapReport], list[Grads]]:
    """Drive :meth:`reduce_overlapped` through the four-step campaign;
    also returns worker 0's gradients per step (OVL002's ground truth)."""
    layers = _model_layers(case.model)
    names = [name for name, _ in layers]
    row = case.row
    quorum_column = row.participants is not None
    config = _cell_config(case.engine_scheme)
    engine = CommunicationEngine(
        config, node_of=list(row.node_of) if row.node_of else None)
    rng = np.random.default_rng(7)
    # stable per-cell seed (hash() of a str-carrying tuple is salted per
    # process, which would certify different data on every run)
    grad_rng = np.random.default_rng(zlib.crc32(case.path.encode()))
    delays = OverlapDelays.uniform(names, compute=UNIFORM_COMPUTE,
                                   comm_latency=UNIFORM_COMM,
                                   comm_per_byte=0.0)
    ready_order = list(reversed(names))
    quorum = list(row.participants or default_quorum(case.world))

    reports: list[OverlapReport] = []
    fed: list[Grads] = []
    with capture() as trace:
        for step in range(CELL_STEPS):
            per_worker = [
                {name: grad_rng.normal(size=numel).astype(np.float32)
                 for name, numel in layers}
                for _ in range(case.world)
            ]
            # step 1 reshapes the plan (adaptive respec); the quorum
            # reducer takes over on step 2 (and step 1 for the quorum
            # column); step 3 drains the carries at full participation
            if step == 1:
                config.per_layer["layer3"] = CompressionSpec(
                    "qsgd", bits=8, bucket_size=32, error_feedback=True)
            demoted = step == 2 or (quorum_column and step == 1)
            participants = quorum if demoted else None
            _, report = engine.reduce_overlapped(
                per_worker, rng, ready_order=ready_order,
                participants=participants,
                average_over=len(quorum) if demoted else None,
                step=step, delays=delays)
            _consume_all(names, step, report.overlapped_time)
            reports.append(report)
            fed.append(per_worker[0])
    return trace, reports, fed


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
    out = case.findings()
    by_step = _events_by_step(trace)
    if step_ids is None:
        step_ids = list(range(len(reports)))

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
                out.emit("OVL001", f"step {step}, layer {layer!r}: no bucket "
                                   f"carries this layer's reduction")
                continue
            r, e = ready.get(layer), enqueued.get(bucket)
            ld, c = landed.get(bucket), consumed.get(layer)
            missing = [label for label, ev in
                       (("grad_ready", r), ("reduce_enqueued", e),
                        ("reduce_landed", ld), ("grad_consumed", c))
                       if ev is None]
            if missing:
                out.emit("OVL001",
                         f"step {step}, layer {layer!r}: lifecycle event(s) "
                         f"{', '.join(missing)} missing from the trace")
                continue
            assert r and e and ld and c
            for before, after, what in (
                    (r, e, "enqueued before its gradient was ready"),
                    (e, ld, "landed before it was enqueued"),
                    (ld, c, "consumed before its reduction landed")):
                if after.t < before.t - TIME_EPS or after.pos < before.pos:
                    out.emit("OVL001",
                             f"step {step}, layer {layer!r}: {what} "
                             f"(t {before.t:.6f} -> {after.t:.6f}, "
                             f"pos {before.pos} -> {after.pos})")
    return out


# -- OVL002: fusion conservation ----------------------------------------------

def _serialized_bytes(bucket: OverlapBucket, grads: Grads) -> int:
    """What the bucket's payloads measure on the wire: each inner
    package's buffer through a fresh stateless compressor, serialized."""
    return sum(
        measured_wire_bytes(make_compressor(pkg.spec).compress(
            _gather_package(grads, pkg).copy(), np.random.default_rng(0),
            key=pkg.name))
        for pkg in bucket.packages)


def check_fusion_conservation(case: OverlapCase,
                              reports: Sequence[OverlapReport],
                              layers: Sequence[tuple[str, int]],
                              fed: Sequence[Grads] = ()) -> list[Finding]:
    """OVL002: buckets partition the layers; byte accounting is exact —
    also against what ``fed`` (one worker's gradients per report)
    actually serializes to, where given."""
    out = case.findings()
    expected = sorted(name for name, _ in layers)
    numel_of = dict(layers)
    for step, report in enumerate(reports):
        covered = [layer for bucket in report.buckets
                   for layer in bucket.layer_names]
        if sorted(covered) != expected:
            out.emit("OVL002",
                     f"step {step}: buckets cover {sorted(covered)} but the "
                     f"model has {expected} — a layer reduced twice or "
                     f"dropped")
            continue
        for bucket in report.buckets:
            dense = sum(numel_of[layer] * 4 for layer in bucket.layer_names)
            if bucket.dense_bytes != dense:
                out.emit("OVL002",
                         f"step {step}, {bucket.name}: dense accounting "
                         f"{bucket.dense_bytes} B != member total {dense} B")
            claimed = sum(pkg.spec.wire_bytes(pkg.numel)
                          for pkg in bucket.packages)
            if bucket.wire_bytes != claimed:
                out.emit("OVL002",
                         f"step {step}, {bucket.name}: wire accounting "
                         f"{bucket.wire_bytes} B != per-layer spec total "
                         f"{claimed} B")
            if not fed:
                continue
            measured = _serialized_bytes(bucket, fed[step])
            if measured != claimed:
                out.emit("OVL002",
                         f"step {step}, {bucket.name}: serialized payload "
                         f"measures {measured} B but the spec claims "
                         f"{claimed} B")
    return out


# -- OVL003: launch-priority discipline ---------------------------------------

def check_priority(case: OverlapCase,
                   reports: Sequence[OverlapReport]) -> list[Finding]:
    """OVL003: replay the channel and compare against the recorded order."""
    out = case.findings()
    for step, report in enumerate(reports):
        recorded = sorted(report.buckets, key=lambda b: b.launch_t)
        for bucket in report.buckets:
            if bucket.launch_t < bucket.ready_t - TIME_EPS:
                out.emit("OVL003",
                         f"step {step}, {bucket.name}: launched at "
                         f"{bucket.launch_t:.6f} before sealing at "
                         f"{bucket.ready_t:.6f}")
        for prev, nxt in zip(recorded, recorded[1:]):
            if nxt.launch_t < prev.landed_t - TIME_EPS:
                out.emit("OVL003",
                         f"step {step}: {nxt.name} launched at "
                         f"{nxt.launch_t:.6f} while {prev.name} still held "
                         f"the channel until {prev.landed_t:.6f}")
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
                    out.emit("OVL003",
                             f"step {step}: {bucket.name} (first_needed "
                             f"{bucket.first_needed}) launched ahead of "
                             f"sealed {best.name} (first_needed "
                             f"{best.first_needed}) — priority inversion")
            remaining.remove(bucket)
    return out


# -- OVL004: in-flight compressor-state attribution ---------------------------

def check_state_attribution(case: OverlapCase, trace: ScheduleTrace,
                            reports: Sequence[OverlapReport]
                            ) -> list[Finding]:
    """OVL004: state accesses stay inside exactly one bucket's execution."""
    out = case.findings()
    spans: list[tuple[int, str, int, int]] = []   # (step, bucket, lo, hi)
    for step, report in enumerate(reports):
        for bucket in report.buckets:
            lo, hi = bucket.exec_span
            if lo < 0:
                out.emit("OVL004",
                         f"step {step}, {bucket.name}: no execution span "
                         f"recorded — the reduction never ran")
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
            out.emit("OVL004",
                     f"state key {item.buffer} accessed at timeline position "
                     f"{pos}, outside every bucket's execution span")
            continue
        for step, name in containing:
            owners.setdefault((step, item.buffer), set()).add(name)
    for (step, key), buckets in sorted(owners.items()):
        if len(buckets) > 1:
            out.emit("OVL004",
                     f"step {step}: state key {key} touched by "
                     f"{len(buckets)} buckets ({', '.join(sorted(buckets))}) "
                     f"— two in-flight reductions share residual state")

    # the happens-before race detector over the overlapped timeline:
    # an unordered conflict the span bookkeeping cannot express
    for race in analyze_trace(trace, case.engine_scheme, case.world):
        out.emit("OVL004",
                 f"happens-before conflict in the overlapped timeline: "
                 f"[{race.rule}] {race.message}")
    return out


# -- OVL005: makespan bound and overlap effectiveness -------------------------

#: the uniform-delay battery keeps compute and communication balanced,
#: so an overlapped step must beat the sequential baseline by at least
#: this factor (B buckets pipeline down to ~(1+1/B)/2 of sequential)
EFFECTIVENESS_FACTOR = 0.8


def check_makespan(case: OverlapCase, reports: Sequence[OverlapReport]
                   ) -> list[Finding]:
    """OVL005: bound + effectiveness under the injected uniform delays."""
    out = case.findings()
    for step, report in enumerate(reports):
        if not report.buckets:
            continue
        comm = [b.landed_t - b.launch_t for b in report.buckets]
        fill = min(b.ready_t for b in report.buckets)
        bound = max(report.compute_end, report.comm_total) \
            + max(max(comm), fill) + 1e-6
        if report.overlapped_time > bound:
            out.emit("OVL005",
                     f"step {step}: overlapped makespan "
                     f"{report.overlapped_time:.6f}s exceeds the bound "
                     f"{bound:.6f}s (compute {report.compute_end:.6f}s, "
                     f"comm {report.comm_total:.6f}s) — the channel idled "
                     f"with sealed buckets pending")
        limit = EFFECTIVENESS_FACTOR * report.sequential_time
        if len(report.buckets) >= 2 and report.overlapped_time > limit:
            out.emit("OVL005",
                     f"step {step}: overlapped step "
                     f"{report.overlapped_time:.6f}s is not "
                     f"{EFFECTIVENESS_FACTOR:.1f}x under the sequential "
                     f"{report.sequential_time:.6f}s — overlap bought "
                     f"nothing")
    return out


# -- putting one cell together ------------------------------------------------

def analyze_overlap_trace(case: OverlapCase, trace: ScheduleTrace,
                          reports: Sequence[OverlapReport],
                          layers: Sequence[tuple[str, int]],
                          fed: Sequence[Grads] = (),
                          step_ids: Sequence[int] | None = None,
                          makespan: bool = True) -> list[Finding]:
    """All dynamic OVL rules over one cell's captured campaign (``fed``
    and ``step_ids`` as the checks take them; ``makespan=False`` for a
    cell whose delays were not injected, where OVL005 is not exact)."""
    names = [name for name, _ in layers]
    return sort_findings([
        *check_use_before_reduce(case, trace, reports, names, step_ids),
        *check_fusion_conservation(case, reports, layers, fed),
        *check_priority(case, reports),
        *check_state_attribution(case, trace, reports),
        *(check_makespan(case, reports) if makespan else ())])


def certify_case(case: OverlapCase) -> list[Finding]:
    """Run one battery cell and certify its trace; [] means clean."""
    trace, reports, fed = _run_cell(case)
    return analyze_overlap_trace(case, trace, reports,
                                 _model_layers(case.model), fed)


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
    layers = [(name, param.numel) for name, param
              in trainer.replicas[0].named_parameters()]
    reports: list[OverlapReport] = []
    step_ids: list[int] = []
    with capture() as trace:
        for _ in range(steps):
            trainer.train_step()
            report = trainer.ddp.last_report
            assert isinstance(report, OverlapReport)
            reports.append(report)
            step_ids.append(trainer._step_index)
    return analyze_overlap_trace(case, trace, reports, layers,
                                 step_ids=step_ids, makespan=False)


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
    occurrence-numbered for stable fingerprints."""
    return lint_roots(roots if roots is not None
                      else consumer_default_roots(),
                      lint_grad_consumer_source)


# -- the full battery ---------------------------------------------------------

def verify_overlap(worlds: tuple[int, ...] = (2, 3, 4)) -> list[Finding]:
    """Certify every (scheme x world x model) cell; [] means clean."""
    findings: list[Finding] = []
    for case in overlap_cases(worlds):
        findings.extend(certify_case(case))
    findings.extend(certify_trainer())
    findings.extend(lint_grad_consumers())
    return sort_findings(findings)
