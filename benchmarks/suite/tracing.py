"""Run-time span tracing of the layers' public entry points.

The traced run wraps functions *from here* — nothing under ``src/`` is
edited.  Every span records name, start, end and the span that caused it;
spans stay in memory (every duration, plus the first ``keep`` full
records for the Chrome trace) and are written out when the run ends.

A layer's *self* time is its spans' durations minus whatever their child
spans cover; a layer's *busy* time is the duration of its outermost spans
(a compressor wrapping another compressor is counted once).

Wrappers are installed for the life of the process: each workload runs in
its own child, so nothing is ever restored.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

__all__ = ["Tracer", "install", "replace_everywhere", "tail_percentile",
           "quantile"]


def quantile(values, q: float) -> float:
    """Lower-interpolated quantile: the sample at rank floor(q * (n - 1))."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[int(q * (len(ordered) - 1))]


def tail_percentile(values) -> tuple[str, float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)):
        if n * (1.0 - q) >= 10:
            return label, quantile(values, q)
    return "max", max(values) if n else 0.0


class SpanStat:
    """Aggregates of every span sharing one name."""

    __slots__ = ("name", "layer", "count", "total", "self_time", "outer",
                 "durations")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.count = 0
        self.total = 0.0      # inclusive seconds
        self.self_time = 0.0  # minus child spans
        self.outer = 0.0      # spans not nested in a span of the same layer
        self.durations = array("d")

    def p50(self) -> float:
        return quantile(self.durations, 0.5)


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.stats: dict[str, SpanStat] = {}
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[list] = []            # [child seconds, span id]
        self._depth: dict[str, int] = {}       # layer -> open spans
        self._next_id = 0
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, layer: str | None = None):
        """``fn`` wrapped in a span called ``name`` (layer = name prefix)."""
        layer = layer or name.split(".")[0]
        stat = self.stats.setdefault(name, SpanStat(name, layer))
        self._depth.setdefault(layer, 0)
        open_, depth, spans, keep = self._open, self._depth, self.spans, self.keep
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = open_[-1] if open_ else None
            frame = [0.0, span_id]
            open_.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                depth[layer] -= 1
                duration = end - start
                stat.count += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                stat.durations.append(duration)
                if depth[layer] == 0:
                    stat.outer += duration
                if parent is not None:
                    parent[0] += duration
                if len(spans) < keep:
                    spans.append((name, start, end, span_id,
                                  parent[1] if parent is not None else -1))

        return traced

    def wrap_attr(self, owner, attr: str, name: str,
                  layer: str | None = None) -> None:
        """Replace ``owner.attr`` (class, module or instance) by its span."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), layer))

    # -- reading -----------------------------------------------------------
    def counts(self) -> dict[str, int]:
        return {name: stat.count for name, stat in self.stats.items()}

    def count(self, *names: str) -> int:
        return sum(self.stats[n].count for n in names if n in self.stats)

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def p50(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.p50() if stat is not None and stat.count else 0.0

    def layer_busy(self, layer: str) -> float:
        return sum(s.outer for s in self.stats.values() if s.layer == layer)

    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for s in self.stats.values() if s.layer == layer)

    def table(self) -> list[dict]:
        """One row per span name: count, median, tail percentile, self."""
        rows = []
        for stat in sorted(self.stats.values(), key=lambda s: -s.total):
            if not stat.count:
                continue
            ordered = sorted(stat.durations)   # millions of samples: sort once
            label, tail = tail_percentile(ordered)
            rows.append({"span": stat.name, "layer": stat.layer,
                         "count": stat.count, "total_s": stat.total,
                         "self_s": stat.self_time,
                         "p50_ms": 1e3 * quantile(ordered, 0.5),
                         "tail": label, "tail_ms": 1e3 * tail})
        return rows

    def write_chrome_trace(self, path: str, process: str) -> int:
        """Dump the kept spans as a Chrome/Perfetto trace; returns count."""
        events: list[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "args": {"name": process}}]
        for name, start, end, span_id, parent in self.spans:
            events.append({
                "name": name, "cat": self.stats[name].layer, "ph": "X",
                "pid": 1, "tid": 0,
                "ts": (start - self.origin) * 1e6,
                "dur": max(0.001, (end - start) * 1e6),
                "args": {"id": span_id, "parent": parent},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "spans_recorded": self._next_id,
                       "spans_kept": len(self.spans)}, handle)
        return len(self.spans)


def replace_everywhere(original, replacement) -> None:
    """Rebind every module-level name in ``repro`` that holds ``original``
    — ``from x import f`` copies included.  (The suite's own modules reach
    the program through module attributes at call time, so they need none.)"""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _wrap_function(tracer: Tracer, fn, name: str, layer: str | None = None):
    traced = tracer.wrap(name, fn, layer)
    replace_everywhere(fn, traced)
    return traced


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see README, "Traced
    run").  Trainer-boundary spans (model forward/backward, optimizer step)
    are per instance and installed by the ``train_steps`` workload."""
    import repro.cluster.network as network
    import repro.collectives as collectives
    import repro.collectives.timing as timing
    import repro.compression as compression
    import repro.compression.qsgd as qsgd
    import repro.core.ddp as ddp
    import repro.core.engine as engine
    import repro.faults.validate as validate
    import repro.models.specs as specs
    import repro.sched.battery as battery
    import repro.sched.fleet as fleet
    import repro.sched.metrics as sched_metrics
    import repro.sched.placement as placement
    import repro.training.perf as perf
    import repro.training.trainer as trainer
    from repro.analysis import (contracts, elastic, health, liveness, overlap,
                                plans, races, rules, schedule, shapes)
    from repro.analysis import sched as analysis_sched

    # repro.compression: every operator class that defines the method
    operators = _subclasses(compression.Compressor) + [compression.ErrorFeedback]
    for cls in operators:
        for method in ("compress", "decompress"):
            if method in vars(cls):
                tracer.wrap_attr(cls, method, f"compression.{method}")
    _wrap_function(tracer, qsgd.pack_codes, "compression.pack_codes")
    _wrap_function(tracer, qsgd.unpack_codes, "compression.unpack_codes")

    # repro.collectives: data path (dispatch goes through ALGORITHMS)
    for scheme, fn in list(collectives.ALGORITHMS.items()):
        collectives.ALGORITHMS[scheme] = _wrap_function(
            tracer, fn, f"collectives.{scheme}")
    tracer.wrap_attr(collectives.PartialAllreduce, "reduce",
                     "collectives.partial")

    # repro.collectives.timing
    for fn in (timing.time_allreduce, timing.time_overlapped_step,
               timing.time_partial_allreduce):
        _wrap_function(tracer, fn, f"collectives.timing.{fn.__name__}",
                       "collectives.timing")

    # repro.core
    for method in ("plan", "reduce", "reduce_overlapped"):
        tracer.wrap_attr(engine.CommunicationEngine, method,
                         f"core.engine.{method}", "core.engine")
    for method in ("synchronize", "synchronize_overlapped"):
        tracer.wrap_attr(ddp.CGXDistributedDataParallel, method,
                         f"core.ddp.{method}", "core.ddp")

    # repro.training
    tracer.wrap_attr(trainer.DataParallelTrainer, "train_step",
                     "training.trainer.train_step", "training.trainer")
    for fn in (perf.simulate_step, perf.plan_step_packages,
               perf.package_ready_offsets):
        _wrap_function(tracer, fn, f"training.perf.{fn.__name__}",
                       "training.perf")
    _wrap_function(tracer, specs.build_spec, "models.build_spec")

    # repro.cluster
    tracer.wrap_attr(network.Network, "transfer", "cluster.transfer")
    tracer.wrap_attr(network.Network, "run_kernel", "cluster.run_kernel")
    tracer.wrap_attr(network.Network, "__init__", "cluster.network_build")

    # repro.sched
    tracer.wrap_attr(fleet.FleetSimulator, "run", "sched.fleet_run")
    _wrap_function(tracer, placement.place, "sched.place")
    _wrap_function(tracer, sched_metrics.compute_metrics,
                   "sched.compute_metrics")

    # repro.analysis: every verifier the certify units call
    verifiers = [
        rules.run_lint, schedule.verify_schedules, contracts.verify_contracts,
        validate.verify_crc_detection, validate.verify_fault_determinism,
        races.verify_races, validate.verify_fault_schedules,
        plans.verify_plans, shapes.verify_shapes,
        health.verify_detection_latency, health.verify_store_crash_safety,
        liveness.verify_liveness, overlap.verify_overlap,
        elastic.verify_drain_protocol, elastic.verify_respec_feasibility,
        analysis_sched.verify_sched, analysis_sched.lint_job_tagging,
        analysis_sched.certify_fleet, battery.run_fleet_case,
    ]
    for fn in verifiers:
        _wrap_function(tracer, fn, f"analysis.{fn.__name__}")
