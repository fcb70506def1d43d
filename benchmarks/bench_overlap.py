"""Extension: overlapped vs. sequential gradient exchange on the wire.

The engine's overlapped mode enqueues each bucket's collective as its
member gradients are emitted, so communication hides under the rest of
the backward pass instead of starting after it.  This benchmark drives
the Network-grounded timed model (:func:`repro.collectives
.time_overlapped_step`) over the real CGX bucket plans of three paper
models on the commodity 8x RTX 3090 box, and reports the per-step
wall-time of both drains plus the overlap ratio.  A machine-readable
``BENCH_overlap.json`` is persisted for CI to ratchet against.
"""

import json
import os

from common import RESULTS_DIR, emit, format_table, run_once

from repro.cluster import Network, get_backend, get_machine
from repro.collectives import TimedBucket, time_overlapped_step
from repro.core import CGXConfig
from repro.models import build_spec
from repro.training.perf import package_ready_offsets, plan_step_packages

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_overlap.json")

MODELS = ["resnet50", "vgg16", "transformer_xl"]
SCHEMES = ["sra", "ring"]
MACHINE = "rtx3090-8x"


def _timed_step(model: str, scheme: str) -> dict:
    """One overlapped-vs-sequential comparison on the calibrated machine."""
    machine = get_machine(MACHINE)
    spec = build_spec(model)
    config = CGXConfig.cgx_default()
    config.scheme = scheme

    packages = plan_step_packages(spec, config, "cgx")
    batch = machine.gpu.max_batch_per_gpu(spec)
    compute_time = machine.gpu.step_compute_time(spec, batch)
    offsets = package_ready_offsets(spec, config, compute_time, packages)
    forward_pos = {t.name: i for i, t in enumerate(spec.tensors)}

    buckets = [
        TimedBucket(
            name=pkg.name, numel=pkg.numel, spec=pkg.spec, ready=offset,
            first_needed=min(forward_pos[layer.name]
                             for layer in pkg.layers),
            min_index=i,
        )
        for i, (pkg, offset) in enumerate(zip(packages, offsets))
    ]
    net = Network(machine.topology(), get_backend(config.backend))
    timing = time_overlapped_step(net, list(range(machine.n_gpus)), buckets,
                                  scheme=scheme, compute_end=compute_time)
    return {
        "model": model,
        "scheme": scheme,
        "buckets": len(buckets),
        "compute_s": compute_time,
        "overlapped_s": timing.overlapped_end,
        "sequential_s": timing.sequential_end,
        "overlap_ratio": timing.overlap_ratio,
        "wire_bytes": timing.wire_bytes,
    }


def run_campaign():
    return [_timed_step(model, scheme)
            for model in MODELS for scheme in SCHEMES]


def test_bench_overlap(benchmark):
    results = run_once(benchmark, run_campaign)

    rows = [[r["model"], r["scheme"], r["buckets"],
             f"{1e3 * r['compute_s']:.1f}", f"{1e3 * r['sequential_s']:.1f}",
             f"{1e3 * r['overlapped_s']:.1f}", f"{r['overlap_ratio']:.2f}x"]
            for r in results]
    emit("overlap", format_table(
        f"Overlapped vs sequential gradient exchange ({MACHINE}, 8 GPUs)",
        ["model", "scheme", "buckets", "compute ms", "sequential ms",
         "overlapped ms", "ratio"],
        rows,
        note="sequential = all collectives start after the backward pass; "
             "overlapped = buckets launch as their gradients are emitted "
             "(first-needed-first-sent)."))

    payload = {
        "version": 1,
        "machine": MACHINE,
        "results": results,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for r in results:
        # overlap must never lose, and must actually hide communication
        # under compute on every (model, scheme) cell
        assert r["overlapped_s"] <= r["sequential_s"] + 1e-9, r
        assert r["overlap_ratio"] > 1.05, r
        assert r["buckets"] >= 2, r
