"""The benchmark's metric and workload catalogue: the single source of truth.

``BENCHMARK.json`` at the repo root is this module rendered as JSON
(:func:`benchmark_json`; ``test_suite.py`` asserts the two agree).  The
runner fills every per-layer name a workload does not produce with 0 so a
traced run always prints the full set; ``compare.py`` reads
:data:`EXACT` to know which values must repeat bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "WORKLOADS", "END_TO_END", "PER_LAYER", "EXACT",
           "RUN_SECONDS", "benchmark_json"]

#: seconds one run measures for (the driver passes it back as --seconds)
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "higher" | "lower"
    bound: float = 0.0   # end-to-end only: tolerated worsening, share of parent
    exact: bool = False  # per-layer only: must repeat bit-for-bit for a seed


#: name -> why it was chosen (one line, <= 200 chars, closed loop stated)
WORKLOADS = {
    "reduce_qsgd": (
        "Closed loop, one client: engine reduce/reduce_overlapped of a 3.4M-element "
        "74-tensor gradient, world 4, QSGD 4-bit; compressor kernels are ~95% of an op."),
    "train_steps": (
        "Closed loop, one client: DataParallelTrainer steps (mlp x5 configs, bert x2); "
        "same compress/collective code on tiny tensors, where per-call overhead dominates."),
    "paper_sweep": (
        "Closed loop, one client: Fig.3/Table 5/overlap step simulations on a fresh "
        "Network per step; no compressor call runs, so it bypasses reduce_qsgd's kernels."),
    "fleet_200": (
        "Closed loop, one client: four 200-job fleet campaigns on one long-lived shared "
        "Network (long Resource timelines), plus placement and isolated-replay metrics."),
    "certify": (
        "Closed loop, one client: one unit per analysis pass plus sched battery cells; "
        "the certifier is 28% of the source tree and the dominant dev-loop cost."),
}

END_TO_END = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("ops_per_s", "ops/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.07),
]

TRAIN_CONFIGS = ("mlp_none", "mlp_qsgd4", "mlp_qsgd4_overlap", "mlp_topk_ef",
                 "mlp_qsgd4_lossy", "bert_qsgd4", "bert_qsgd4_overlap")
COMPRESSORS = ("qsgd4", "qsgd8", "nuq4", "topk", "powersgd")
SCHEMES = ("sra", "ring", "tree", "allgather", "ps", "hier")
CAMPAIGNS = ("packed", "spread", "numa", "adaptive")
PASSES = ("lint", "schedule", "contracts", "races", "plans", "shapes",
          "health", "liveness", "overlap", "sched", "elastic")


def _per_layer() -> list[Metric]:
    m: list[Metric] = []

    def add(name: str, unit: str, better: str, exact: bool = False) -> None:
        m.append(Metric(name, unit, better, exact=exact))

    # repro.compression (layer matrix on one 1024x1024 fp32 tensor + spans)
    for comp in COMPRESSORS:
        add(f"compression.{comp}.encode_mb_per_s", "MB/s", "higher")
        add(f"compression.{comp}.decode_mb_per_s", "MB/s", "higher")
    add("compression.pack_codes4.mb_per_s", "MB/s", "higher")
    add("compression.unpack_codes4.mb_per_s", "MB/s", "higher")
    add("compression.qsgd4.small_roundtrips_per_s", "1/s", "higher")
    add("compression.busy_share", "share", "lower")
    add("compression.calls_per_op", "count", "lower", exact=True)
    # repro.collectives data path
    for scheme in SCHEMES:
        add(f"collectives.{scheme}.fp32_mb_per_s", "MB/s", "higher")
    add("collectives.self_share", "share", "lower")
    add("collectives.wire_mb_per_op", "MB", "lower", exact=True)
    # repro.core
    add("core.engine.reduce_ms_p50", "ms", "lower")
    add("core.engine.reduce_overlapped_ms_p50", "ms", "lower")
    add("core.engine.self_share", "share", "lower")
    add("core.engine.plan_ms_p50", "ms", "lower")
    add("core.engine.packages_per_op", "count", "lower", exact=True)
    add("core.overlap.buckets_per_op", "count", "lower", exact=True)
    add("core.ddp.sync_share", "share", "lower")
    add("core.serialization.serialize_mb_per_s", "MB/s", "higher")
    for solver in ("kmeans", "linear", "bayes"):
        add(f"core.adaptive.{solver}_ms", "ms", "lower")
    # repro.nn / repro.training (trainer)
    for config in TRAIN_CONFIGS:
        add(f"training.trainer.step_ms_p50.{config}", "ms", "lower")
    add("training.trainer.self_share", "share", "lower")
    add("nn.fwd_bwd_share", "share", "lower")
    add("nn.fwd_bwd_ms_p50.mlp", "ms", "lower")
    add("nn.fwd_bwd_ms_p50.bert", "ms", "lower")
    add("nn.optimizer_share", "share", "lower")
    # repro.faults
    add("faults.retries_per_op", "count", "lower", exact=True)
    add("faults.lossy_step_overhead", "ratio", "lower")
    # repro.training.perf / repro.models
    add("training.perf.simulate_step_ms_p50", "ms", "lower")
    add("training.perf.self_share", "share", "lower")
    add("training.perf.plan_ms_p50", "ms", "lower")
    add("models.build_spec_ms_p50", "ms", "lower")
    # repro.collectives.timing
    add("collectives.timing.allreduce_calls_per_op", "count", "lower", exact=True)
    add("collectives.timing.busy_share", "share", "lower")
    add("collectives.timing.overlapped_step_ms_p50", "ms", "lower")
    # repro.cluster
    add("cluster.transfers_per_op", "count", "lower", exact=True)
    add("cluster.kernels_per_op", "count", "lower", exact=True)
    add("cluster.transfers_per_s", "1/s", "higher")
    add("cluster.busy_share", "share", "lower")
    add("cluster.network_build_ms_p50", "ms", "lower")
    add("cluster.link_load_overhead_share", "share", "lower")
    # repro.sched
    for campaign in CAMPAIGNS:
        add(f"sched.campaign_s.{campaign}", "s", "lower")
    add("sched.metrics_s_p50", "s", "lower")
    add("sched.self_share", "share", "lower")
    add("sched.place_calls", "count", "lower", exact=True)
    add("sched.place_us_p50", "us", "lower")
    add("sched.log_bytes", "count", "lower", exact=True)
    # repro.analysis
    for name in PASSES:
        add(f"analysis.{name}.s", "s", "lower")
    add("analysis.sched.run_share", "share", "lower")
    add("analysis.sched.certify_ms_per_job", "ms", "lower")
    add("analysis.units", "count", "higher", exact=True)
    add("analysis.findings", "count", "lower", exact=True)
    # modelled outputs: the identity gate
    add("model.reduce.rel_error", "ratio", "lower", exact=True)
    add("model.reduce.wire_ratio", "ratio", "higher", exact=True)
    add("model.train.loss_final.mlp_qsgd4", "loss", "lower", exact=True)
    add("model.train.loss_final.bert_qsgd4", "loss", "lower", exact=True)
    add("model.train.loss_gap_vs_fp32.mlp", "loss", "lower", exact=True)
    add("model.sweep.sim_step_ms_mean", "ms", "lower", exact=True)
    add("model.sweep.cgx_scaling_eff_3090x8", "ratio", "higher", exact=True)
    add("model.sweep.nccl_scaling_eff_3090x8", "ratio", "higher", exact=True)
    add("model.sweep.cgx_speedup_3090x8", "ratio", "higher", exact=True)
    add("model.sweep.overlap_speedup_mean", "ratio", "higher", exact=True)
    add("model.sweep.hier_step_ms_mean", "ms", "lower", exact=True)
    for campaign in CAMPAIGNS:
        add(f"model.fleet.makespan_s.{campaign}", "s", "lower", exact=True)
    add("model.fleet.fairness.packed", "ratio", "higher", exact=True)
    add("model.fleet.mean_queue_wait_s.packed", "s", "lower", exact=True)
    add("model.fleet.wire_gb.packed", "GB", "lower", exact=True)
    # every workload
    add("host.cpu_share", "share", "higher")
    add("trace.overhead_share", "share", "lower")
    return m


PER_LAYER = _per_layer()
EXACT = frozenset(metric.name for metric in PER_LAYER if metric.exact)


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
