"""Child-process side of the runner: set up one workload, measure it.

One child = one workload, one thread, one closed loop: the next op starts
when the previous one returned.  The parent (``run.py``) pins the BLAS/OMP
thread counts in the child's environment and passes its own wall clock so
``setup_s`` covers interpreter start, imports, input generation and the
warm-up ops.

**How the rate is computed.**  A round is a fixed list of ops of several
kinds.  ``ops_per_s`` is the ops in one round divided by the time one
round takes when every kind runs at its lower-quartile per-op time.  The
lower quartile, not the median: on this shared 2-core sandbox the CPU
alternates between a fast state and one 25-50% slower, in phases lasting
seconds to tens of seconds (a fixed spin loop reads 1.04-1.50x its minimum
by decile).  That noise only ever adds time, so the median of a run mostly
measures how much of it fell into a slow phase; the lower quartile keeps
tracking the code.  The mean- and median-based rates are printed next to
it, ungated.
"""

from __future__ import annotations

import os
import platform
import resource
import time

import metrics as catalogue
import workloads
from tracing import Tracer, install, quantile

__all__ = ["run_child", "RATE_QUANTILE", "OUT_DIR"]

#: per-kind quantile of per-op seconds that ``ops_per_s`` is built from
RATE_QUANTILE = 0.25
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
clock = time.perf_counter


class Samples:
    """Per-op seconds of every segment, by kind."""

    def __init__(self) -> None:
        self.per_op: dict[str, list[float]] = {}
        self.seconds = 0.0
        self.ops = 0

    def add(self, segment) -> None:
        if segment.ops:
            self.per_op.setdefault(segment.kind, []).append(
                segment.seconds / segment.ops)
        self.seconds += segment.seconds
        self.ops += segment.ops

    def round_seconds(self, weights: dict[str, int], q: float) -> float:
        """Seconds one round takes at each kind's ``q``-quantile op time."""
        return sum(ops * quantile(self.per_op[kind], q)
                   for kind, ops in weights.items())


def run_child(role: str, name: str, seed: int, seconds: float, trace: bool,
              scale: float, t0: float) -> dict:
    """Set the workload up and, unless ``role`` is ``setup``, measure it."""
    workload = workloads.make(name, seed, scale)
    workload.warm_up()
    setup_s = time.time() - t0
    if role == "setup":
        return {"setup_s": setup_s}
    result = _measure(workload, seconds, trace)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import numpy

    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "nproc": os.cpu_count()}
    return result


def _measure(workload, seconds: float, trace: bool) -> dict:
    matrix = workload.layer_matrix() if trace else {}
    untraced, traced = Samples(), Samples()
    weights: dict[str, int] = {}
    state = {"rounds": 0, "failed": 0}
    cpu0, wall0 = time.process_time(), clock()
    deadline = wall0 + seconds

    def run_round(samples: Samples, may_stop: bool) -> None:
        for segment in workload.round(state["rounds"]):
            samples.add(segment)
            state["failed"] += segment.failed
            if state["rounds"] == 0:
                weights[segment.kind] = weights.get(segment.kind, 0) + segment.ops
            if may_stop and clock() >= deadline:
                break
        state["rounds"] += 1

    tracer = None
    if not trace:
        while state["rounds"] < workload.min_rounds or clock() < deadline:
            run_round(untraced, state["rounds"] >= workload.min_rounds)
    else:
        for _ in range(workload.min_rounds):
            run_round(untraced, False)
        tracer = Tracer()
        install(tracer)
        workload.instrument(tracer)
        run_round(traced, False)
        first_counts, first_ops = tracer.counts(), traced.ops
        while clock() < deadline:
            run_round(traced, True)
    cpu_share = (time.process_time() - cpu0) / (clock() - wall0)

    exact = workload.exact_metrics()
    verdicts = workload.tally.verdicts()
    failed = state["failed"] + workload.run_level_failures
    round_ops = sum(weights.values())
    result = {
        "workload": workload.name, "seed": workload.seed,
        "scale": workload.scale, "trace": int(trace),
        "rounds": state["rounds"], "weights": weights,
        "attempted": untraced.ops + traced.ops, "failed": failed,
        "checks": verdicts, "exact": exact,
        "samples": untraced.per_op,
        "ops_per_s": round_ops / untraced.round_seconds(weights, RATE_QUANTILE),
        "ops_per_s_median": round_ops / untraced.round_seconds(weights, 0.5),
        "ops_per_s_mean": untraced.ops / untraced.seconds,
    }
    if tracer is not None:
        wall = traced.seconds
        per_layer = {metric.name: 0.0 for metric in catalogue.PER_LAYER}
        per_layer.update(matrix)
        per_layer.update(_generic_layer_metrics(tracer, wall, first_counts,
                                                first_ops))
        per_layer.update(workload.layer_metrics(tracer, wall))
        per_layer.update(exact)
        per_layer["host.cpu_share"] = cpu_share
        per_layer["trace.overhead_share"] = (
            traced.round_seconds(weights, 0.5)
            / untraced.round_seconds(weights, 0.5) - 1.0)
        unknown = set(per_layer) - {m.name for m in catalogue.PER_LAYER}
        if unknown:
            raise RuntimeError(f"metrics missing from the catalogue: {unknown}")
        result["per_layer"] = per_layer
        result["traced_samples"] = traced.per_op
        result["spans"] = tracer.table()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
        result["chrome_trace"] = {
            "path": path, "spans_kept": tracer.write_chrome_trace(
                path, workload.name)}
    return result


def _generic_layer_metrics(tracer: Tracer, wall: float,
                           first_counts: dict[str, int],
                           first_ops: int) -> dict[str, float]:
    """Numbers every workload reports from the same spans (0 where the
    layer never ran — which is itself the bypass prediction checked)."""

    def per_op(*names: str) -> float:
        return sum(first_counts.get(n, 0) for n in names) / first_ops

    p50, total = tracer.p50, tracer.total
    return {
        "compression.busy_share": tracer.layer_busy("compression") / wall,
        "compression.calls_per_op": per_op("compression.compress",
                                           "compression.decompress"),
        "collectives.self_share": tracer.layer_self("collectives") / wall,
        "core.engine.reduce_ms_p50": 1e3 * p50("core.engine.reduce"),
        "core.engine.reduce_overlapped_ms_p50":
            1e3 * p50("core.engine.reduce_overlapped"),
        "core.engine.self_share": tracer.layer_self("core.engine") / wall,
        "core.engine.plan_ms_p50": 1e3 * p50("core.engine.plan"),
        "core.ddp.sync_share": tracer.layer_busy("core.ddp") / wall,
        "training.trainer.self_share":
            tracer.layer_self("training.trainer") / wall,
        "training.perf.simulate_step_ms_p50":
            1e3 * p50("training.perf.simulate_step"),
        "training.perf.self_share": tracer.layer_self("training.perf") / wall,
        "training.perf.plan_ms_p50":
            1e3 * (p50("training.perf.plan_step_packages")
                   + p50("training.perf.package_ready_offsets")),
        "collectives.timing.allreduce_calls_per_op":
            per_op("collectives.timing.time_allreduce"),
        "collectives.timing.busy_share":
            tracer.layer_self("collectives.timing") / wall,
        "collectives.timing.overlapped_step_ms_p50":
            1e3 * p50("collectives.timing.time_overlapped_step"),
        "cluster.transfers_per_op": per_op("cluster.transfer"),
        "cluster.kernels_per_op": per_op("cluster.run_kernel"),
        "cluster.transfers_per_s": tracer.count("cluster.transfer") / wall,
        "cluster.busy_share":
            total("cluster.transfer", "cluster.run_kernel") / wall,
        "cluster.network_build_ms_p50": 1e3 * p50("cluster.network_build"),
        "sched.metrics_s_p50": p50("sched.compute_metrics"),
        "sched.self_share": tracer.layer_self("sched") / wall,
        "sched.place_calls": first_counts.get("sched.place", 0),
        "sched.place_us_p50": 1e6 * p50("sched.place"),
    }
