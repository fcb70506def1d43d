"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_simulate_outputs_throughput():
    code, text = run_cli(["simulate", "--model", "resnet50",
                          "--machine", "rtx3090-8x", "--method", "cgx"])
    assert code == 0
    assert "throughput" in text
    assert "% of linear" in text
    assert "25.6M params" in text


def test_simulate_methods_differ():
    _, cgx = run_cli(["simulate", "--model", "vit",
                      "--machine", "rtx3090-8x", "--method", "cgx"])
    _, nccl = run_cli(["simulate", "--model", "vit",
                       "--machine", "rtx3090-8x", "--method", "nccl"])
    assert cgx != nccl
    assert "scheme=ring" in nccl and "scheme=sra" in cgx


def test_simulate_gpu_count_and_scheme_override():
    code, text = run_cli(["simulate", "--model", "bert",
                          "--machine", "dgx1", "--method", "cgx",
                          "--gpus", "4", "--scheme", "ring"])
    assert code == 0
    assert "x4" in text
    assert "scheme=ring" in text


def test_simulate_rejects_unknown_model():
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--model", "resnet18",
                 "--machine", "rtx3090-8x"])


def test_train_runs_and_reports():
    code, text = run_cli(["train", "--family", "mlp", "--world", "2",
                          "--steps", "30"])
    assert code == 0
    assert "final top1" in text
    assert "compression:" in text


def test_train_baseline_flag():
    code, text = run_cli(["train", "--family", "mlp", "--world", "2",
                          "--steps", "20", "--baseline"])
    assert code == 0
    assert "baseline" in text
    assert "compression: 1.0x" in text


def test_train_unknown_family_is_graceful():
    code, _ = run_cli(["train", "--family", "resnet18"])
    assert code == 2


def test_topology_describes_machine():
    code, text = run_cli(["topology", "--machine", "rtx3090-8x"])
    assert code == 0
    assert "NUMA0" in text and "NUMA1" in text
    assert "GPUDirect: False" in text


def test_topology_price_shown_for_cloud():
    _, text = run_cli(["topology", "--machine", "genesis-4x3090"])
    assert "$6.8/hour" in text


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_list():
    code, text = run_cli(["experiment", "--list"])
    assert code == 0
    assert "fig3" in text and "table7" in text
    assert "bench_table7_adaptive.py" in text


def test_experiment_default_lists():
    code, text = run_cli(["experiment"])
    assert code == 0
    assert "available experiments" in text


def test_experiment_unknown_name():
    code, _ = run_cli(["experiment", "figure99"])
    assert code == 2


def test_experiment_registry_files_exist():
    import os

    from repro.cli import EXPERIMENTS

    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    for bench in EXPERIMENTS.values():
        assert os.path.exists(os.path.join(bench_dir, bench)), bench


def test_experiment_list_shows_every_bench_file():
    """The table is the directory: a new ``bench_*.py`` is runnable
    through ``repro experiment`` without editing ``cli.py``."""
    import os

    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    files = [name for name in os.listdir(bench_dir)
             if name.startswith("bench_") and name.endswith(".py")]
    code, text = run_cli(["experiment", "--list"])
    assert code == 0 and len(files) >= 30
    listed = dict(line.split() for line in text.splitlines()[1:])
    assert set(listed.values()) == set(files)
    assert listed["overlap"] == "bench_overlap.py"
    assert listed["fault-campaigns"] == "bench_fault_campaigns.py"
    assert listed["fig3"] == listed["fig3-throughput"]


def test_simulate_with_config_file(tmp_path):
    from repro.core import CGXConfig
    from repro.core.serialization import dump_config

    config = CGXConfig.cgx_default()
    config.scheme = "ring"
    path = tmp_path / "cfg.json"
    dump_config(config, str(path))
    code, text = run_cli(["simulate", "--model", "vit",
                          "--machine", "rtx3090-8x",
                          "--config", str(path)])
    assert code == 0
    assert "scheme=ring" in text
    assert str(path) in text


def test_sched_runs_a_fleet(tmp_path):
    log1 = tmp_path / "fleet1.json"
    log2 = tmp_path / "fleet2.json"
    code, text = run_cli(["sched", "--jobs", "8", "--policy", "packed",
                          "--seed", "7", "--log", str(log1)])
    assert code == 0
    assert "fairness" in text and "queueing" in text
    code, _ = run_cli(["sched", "--jobs", "8", "--policy", "packed",
                       "--seed", "7", "--log", str(log2)])
    assert code == 0
    assert log1.read_bytes() == log2.read_bytes()   # canonical fleet log


def test_sched_json_and_trace_output(tmp_path):
    import json

    trace = tmp_path / "fleet_trace.json"
    code, text = run_cli(["sched", "--jobs", "6", "--seed", "3", "--json",
                          "--trace", str(trace), "--worlds", "2,4"])
    assert code == 0
    payload = json.loads(text.split("\ntrace")[0])   # JSON, then trace line
    assert payload["completed"] == 6
    assert 0 < payload["fairness"] <= 1
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["ph"] == "M" for e in events)      # per-job lanes


def test_faults_prints_every_nonzero_counter(monkeypatch):
    # --no-crc lets corruptions through; the counter that explains the
    # blown-up loss (corrupt_delivered) used to be missing from a
    # hand-kept print list — now every non-zero counter is shown
    from repro.training.trainer import DataParallelTrainer

    results = []
    real_train = DataParallelTrainer.train

    def spy(self, *args, **kwargs):
        results.append(real_train(self, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(DataParallelTrainer, "train", spy)
    code, text = run_cli(["faults", "lossy-link", "--no-crc",
                          "--steps", "12"])
    assert code == 0
    summary = results[-1].fault_summary   # the faulty run, after the baseline
    printed = {line.split()[0]: int(line.split()[1])
               for line in text.splitlines() if line.startswith("  ")}
    assert printed == {name: value for name, value in summary.items()
                       if value}
    assert printed["corrupt_delivered"] > 0


SIMULATE = ["simulate", "--model", "resnet50", "--machine", "rtx3090-8x"]


@pytest.mark.parametrize("argv", [
    ["sched", "--models", "nope"],
    ["sched", "--worlds", "2,x"],
    ["faults", "spot-churn", "--world", "2"],
    ["faults", "--list", "--world", "2"],
    SIMULATE + ["--gpus", "0"],
    SIMULATE + ["--gpus", "99"],
    ["topology", "--machine", "rtx3090-8x", "--gpus", "0"],
    ["topology", "--machine", "rtx3090-8x", "--gpus", "99"],
], ids=["sched-model", "sched-worlds", "faults-world", "faults-list-world",
        "simulate-gpus-0", "simulate-gpus-99", "topology-gpus-0",
        "topology-gpus-99"])
def test_bad_input_is_a_one_line_usage_error(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sched_policy_is_a_parser_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sched", "--policy", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (SIMULATE + ["--bits", "9"], "argument --bits: invalid choice: 9"),
    (SIMULATE + ["--bucket-size", "0"], "argument --bucket-size: must be >= 1"),
    (["train", "--family", "mlp", "--world", "0"], "argument --world"),
    (["train", "--family", "mlp", "--steps", "0"], "argument --steps"),
    (["faults", "lossy-link", "--steps", "0"], "argument --steps"),
    (["sched", "--jobs", "0"], "argument --jobs: must be >= 1"),
    (["sched", "--link-load-bin", "-1"], "argument --link-load-bin: must be >= 0"),
    (["sched", "--mean-interarrival", "0"],
     "argument --mean-interarrival: must be > 0"),
], ids=["simulate-bits", "simulate-bucket-size", "train-world", "train-steps",
        "faults-steps", "sched-jobs", "sched-link-load-bin",
        "sched-mean-interarrival"])
def test_out_of_range_number_is_a_parser_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
