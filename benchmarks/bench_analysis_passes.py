"""Extension: wall-time budget of the static-analysis suite.

CI runs ``python -m repro.analysis --all`` on every push, so the suite's
cost is part of the development loop: this benchmark times each pass
of the registry (``repro.analysis.registry.REGISTRY``) individually,
measures the schedule simulator's throughput (trace events generated
per second across the liveness battery), and
persists both a human-readable table and a machine-readable
``BENCH_analysis.json`` for tooling to ratchet against.
"""

import json
import os
import time

from common import RESULTS_DIR, emit, format_table, run_once

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_analysis.json")


def _timed_passes() -> dict[str, float]:
    """Wall-time per registry pass, in seconds, in CI execution order."""
    from repro.analysis.registry import REGISTRY

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    timings = {}
    for row in REGISTRY:
        start = time.perf_counter()
        findings = row.run([src])
        timings[row.name] = time.perf_counter() - start
        assert findings == [], f"{row.name} pass not clean: {findings[:3]}"
    return timings


def _simulator_throughput() -> dict[str, float]:
    """Events/sec of the schedule simulator across the liveness battery."""
    from repro.faults.cases import liveness_cases, trace_liveness_case

    events = 0
    start = time.perf_counter()
    for case in liveness_cases():
        trace, _ = trace_liveness_case(case)
        events += len(trace.events)
    seconds = time.perf_counter() - start
    return {"events": float(events), "seconds": seconds,
            "events_per_sec": events / seconds if seconds else 0.0}


def analysis_passes():
    timings = _timed_passes()
    sim = _simulator_throughput()
    return timings, sim


def test_bench_analysis_passes(benchmark):
    timings, sim = run_once(benchmark, analysis_passes)
    total = sum(timings.values())

    rows = [[name, f"{seconds:.3f}", f"{100 * seconds / total:.1f}%"]
            for name, seconds in timings.items()]
    rows.append(["total", f"{total:.3f}", "100.0%"])
    emit("analysis_passes", format_table(
        "Static-analysis suite wall time (python -m repro.analysis --all)",
        ["pass", "seconds", "share"], rows,
        note=(f"simulator: {sim['events']:.0f} trace events in "
              f"{sim['seconds']:.3f}s across the liveness battery "
              f"({sim['events_per_sec']:,.0f} events/sec)")))

    payload = {
        "version": 1,
        "passes": {name: {"seconds": seconds}
                   for name, seconds in timings.items()},
        "total_seconds": total,
        "simulator": sim,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    from repro.analysis.registry import REGISTRY

    assert list(timings) == [row.name for row in REGISTRY]
    assert sim["events"] > 0 and sim["events_per_sec"] > 0
