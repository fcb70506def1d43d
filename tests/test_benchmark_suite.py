"""Tier-1 guard for the gated benchmark (``BENCHMARK.json``).

``benchmarks/suite`` resolves ``repro.*`` names by attribute at run time
(``workloads.py``, ``layers.py``, ``inputs.py``, ``tracing.install``),
so a rename that tier-1 never notices can sink the benchmark run the
pipeline does after a PR.  This runs the suite's own smoke
configuration — every workload, traced, tiny inputs — and requires a
clean exit, so such a rename turns tier-1 red first.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
WORKLOADS = {"reduce_qsgd", "train_steps", "paper_sweep", "fleet_200",
             "certify"}


def test_benchmark_suite_smoke_run_is_clean():
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
         "--scale", "0.05", "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert set(summary["workloads"]) == WORKLOADS
    for name, workload in summary["workloads"].items():
        assert workload["attempted"] > 0, name
        assert workload["failed"] == 0, (name, workload)
