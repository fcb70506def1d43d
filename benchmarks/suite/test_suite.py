"""Self-test of the benchmark suite (not part of tier-1).

    python -m pytest benchmarks/suite -q

A ``--scale 0.05`` smoke run of all five workloads, twice: validates the
output schema against the driver's limits, shows exact metrics repeat
bit-for-bit, and shows a corrupted replica output is a failed op.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import metrics as catalogue  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SMOKE = ["--scale", "0.05", "--seconds", "0.5"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_suite(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *SMOKE, *extra], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600, check=False)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> list[dict]:
    """Two complete smoke runs (untraced + traced) of the same seed."""
    documents = []
    for label in "ab":
        path = tmp_path_factory.mktemp("smoke") / f"{label}.json"
        done = run_suite("--seed", "5", "--trace", "both", "--out", str(path))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        assert summary["claim"] is None and summary["correct"] is True
        with open(path) as handle:
            documents.append(json.load(handle))
    return documents


def test_benchmark_json_is_the_catalogue_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared == catalogue.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert "closed loop, one client" in workload["why"].lower()
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_smoke_output_schema(smoke):
    document = smoke[0]
    assert document["claim"] is None
    assert {"commit", "seed", "nproc", "python", "numpy", "threads"} \
        <= set(document["provenance"])
    assert set(document["workloads"]) == set(catalogue.WORKLOADS)
    per_layer = {m.name for m in catalogue.PER_LAYER}
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]) == {"setup_s", "ops_per_s",
                                            "peak_rss_mb"}, name
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        assert set(entry["per_layer"]) == per_layer, name
        assert entry["attempted"] >= 1 and entry["failed"] == 0, name
        assert entry["checks"] and all(c["ok"] for c in entry["checks"]), name
        assert "trace.overhead_share" in entry["per_layer"]


def test_exact_metrics_repeat_bit_for_bit(smoke):
    first, second = smoke
    produced = set()
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        for metric in catalogue.EXACT:
            assert entry["per_layer"][metric] == other["per_layer"][metric], \
                (name, metric)
            if entry["per_layer"][metric]:
                produced.add(metric)
    # every exact metric is produced by some workload (findings stay 0)
    assert produced == catalogue.EXACT - {"analysis.findings"}


def test_workloads_stress_different_layers(smoke):
    layers = {name: entry["per_layer"]
              for name, entry in smoke[0]["workloads"].items()}
    assert layers["reduce_qsgd"]["compression.busy_share"] > 0.5
    for bypass in ("paper_sweep", "fleet_200"):
        assert layers[bypass]["compression.calls_per_op"] == 0
        assert layers[bypass]["cluster.transfers_per_op"] > 0
    for data_path in ("reduce_qsgd", "train_steps"):
        assert layers[data_path]["cluster.transfers_per_op"] == 0


def test_compare_marks_regressions_and_exact_drift(smoke):
    first, second = smoke
    out = io.StringIO()
    compare.compare(first, second, out=out)
    assert "EXACT metric differs" not in out.getvalue()

    slower = json.loads(json.dumps(second))
    slower["workloads"]["certify"]["end_to_end"]["ops_per_s"] = \
        0.5 * first["workloads"]["certify"]["end_to_end"]["ops_per_s"]
    out = io.StringIO()
    assert compare.compare(first, slower, out=out) >= 1
    assert "WORSE by 50.0% of A" in out.getvalue()

    drifted = json.loads(json.dumps(first))
    drifted["workloads"]["fleet_200"]["per_layer"]["sched.log_bytes"] += 1
    out = io.StringIO()
    assert compare.compare(first, drifted, out=out) == 1
    assert "EXACT metric differs" in out.getvalue()


def test_single_run_prints_the_driver_contract_line():
    for trace, declared in (("0", catalogue.END_TO_END),
                            ("1", catalogue.PER_LAYER)):
        done = run_suite("--workload", "paper_sweep", "--seed", "2",
                         "--trace", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert isinstance(last["attempted"], int) and last["attempted"] >= 1
        assert list(last["metrics"]) == [m.name for m in declared]
        assert all(set(v) == {"value", "unit"}
                   for v in last["metrics"].values())


def test_corrupted_replica_output_is_a_failed_op():
    import numpy as np
    import workloads

    workload = workloads.make("reduce_qsgd", seed=9, scale=0.05)
    clean = list(workload.round(0))
    assert [s.failed for s in clean] == [0, 0]

    honest_reduce = workload.engine.reduce

    def corrupting_reduce(*args, **kwargs):
        outputs, report = honest_reduce(*args, **kwargs)
        name = next(iter(outputs[1]))
        outputs[1][name] = outputs[1][name] + np.float32(1e-3)
        return outputs, report

    workload.engine.reduce = corrupting_reduce
    corrupted = {s.kind: s.failed for s in workload.round(1)}
    assert corrupted == {"reduce": 1, "reduce_overlapped": 0}
    verdict = next(v for v in workload.tally.verdicts()
                   if v["check"] == "reduce.replicas_bit_identical")
    assert not verdict["ok"] and verdict["failed"] == 1


def test_exits_non_zero_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own directory exist: no result line, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
