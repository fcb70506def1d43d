"""Tests for the analysis CLI: formats, exit codes, pass selection."""

import io
import json
import os

import pytest

from repro.analysis import JSON_REPORT_SCHEMA
from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def run_cli(argv):
    out = io.StringIO()
    code = analysis_main(argv, out=out)
    return code, out.getvalue()


def _validate(value, schema, where="$"):
    """Minimal JSON-schema validator covering the subset we emit."""
    kind = schema["type"]
    types = {"object": dict, "array": list, "integer": int, "string": str}
    assert isinstance(value, types[kind]), f"{where}: expected {kind}"
    if kind == "object":
        for required in schema.get("required", ()):
            assert required in value, f"{where}: missing {required!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{where}.{key}")
    elif kind == "array":
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{where}[{i}]")


def test_clean_tree_exits_zero_with_schedule_verification():
    code, out = run_cli([SRC, "--format", "text"])
    assert code == 0
    assert out == "clean: no findings\n"


def test_fixture_files_exit_nonzero_and_name_every_rule():
    code, out = run_cli([FIXTURES, "--format", "text", "--no-schedule"])
    assert code == 1
    for rule in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
        assert rule in out


def test_json_output_matches_schema():
    code, out = run_cli([FIXTURES, "--format", "json", "--no-schedule"])
    assert code == 1
    report = json.loads(out)
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["version"] == 2
    assert set(report["summary"]) == {"total", "by_rule"}
    assert report["summary"]["total"] == len(report["findings"]) > 0
    assert sum(report["summary"]["by_rule"].values()) \
        == report["summary"]["total"]
    assert report["summary"]["by_rule"]["REP001"] == 1
    code, text = run_cli([FIXTURES, "--no-schedule"])
    assert text.endswith(f"\n{len(report['findings'])} finding(s)\n")


def test_schedule_only_skips_lint_paths():
    code, out = run_cli(["--schedule-only", "--format", "json",
                         "this/path/does/not/exist"])
    assert code == 0  # paths are ignored entirely in schedule-only mode
    assert json.loads(out)["summary"]["total"] == 0


def test_missing_lint_path_is_a_usage_error():
    code, _ = run_cli(["this/path/does/not/exist", "--no-schedule"])
    assert code == 2


def test_repro_analyze_subcommand_forwards(capsys):
    out = io.StringIO()
    code = repro_main(["analyze", SRC, "--format", "json"], out=out)
    assert code == 0
    report = json.loads(out.getvalue())
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["summary"]["total"] == 0


# -- pass selection (contracts / races) ----------------------------------------

def test_contracts_and_races_flags_run_clean():
    code, out = run_cli(["--contracts", "--races"])
    assert code == 0
    assert "clean" in out


def test_contracts_flag_skips_lint_paths():
    # pure semantic pass: nonexistent lint paths must not matter
    code, out = run_cli(["definitely/missing.py", "--contracts"])
    assert code == 0


def test_schedule_only_rejects_contracts_combination():
    code, _ = run_cli(["--schedule-only", "--contracts"])
    assert code == 2


def test_no_schedule_rejects_contracts_combination():
    code, _ = run_cli(["--no-schedule", "--races"])
    assert code == 2


def test_contract_findings_flow_through_baseline(monkeypatch):
    import repro.analysis.schedule as schedule_mod
    from repro.analysis.findings import Finding

    injected = [Finding.semantic("contract", "CON003", "synthetic drift",
                                 "qsgd")]
    # splice a synthetic contract finding into the schedule row's runner
    # (the registry resolves it by module attribute at call time) so the
    # full report path exercises the source kind; with no allowlist to
    # pass through, the finding fails the run
    monkeypatch.setattr(schedule_mod, "verify_schedules", lambda: injected)
    code, out = run_cli(["--schedule-only"])
    assert code == 1
    assert out == "contract[qsgd]: CON003 synthetic drift\n1 finding(s)\n"


def test_json_report_includes_contract_and_race_findings():
    code, raw = run_cli(["--contracts", "--races", "--format", "json"])
    assert code == 0
    report = json.loads(raw)
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["summary"]["total"] == 0


# -- pass selection (plans / shapes / --all) -----------------------------------

def test_plans_and_shapes_flags_run_clean():
    code, out = run_cli(["--plans", "--shapes"])
    assert code == 0
    assert "clean" in out


def test_plans_flag_skips_lint_paths():
    code, out = run_cli(["definitely/missing.py", "--plans"])
    assert code == 0


def test_all_flag_selects_every_pass():
    import argparse

    from repro.analysis.cli import ALL_PASSES, build_parser, select_passes

    args = build_parser().parse_args(["--all"])
    assert select_passes(args) == ALL_PASSES
    assert set(ALL_PASSES) == {"lint", "schedule", "contracts", "races",
                               "plans", "shapes", "health", "liveness",
                               "overlap", "sched", "elastic"}


def test_all_flag_rejects_pass_selection_flags():
    for conflict in (["--all", "--plans"], ["--all", "--schedule-only"],
                     ["--all", "--no-schedule"], ["--all", "--shapes"]):
        code, _ = run_cli(conflict)
        assert code == 2, conflict


def test_schedule_only_rejects_plans_combination():
    code, _ = run_cli(["--schedule-only", "--plans"])
    assert code == 2


def _stub_every_runner(monkeypatch, ran, planted=()):
    """Replace every registry runner with a recorder; ``planted`` findings
    come back from the ``plans`` row."""
    import importlib

    from repro.analysis.registry import REGISTRY

    for row in REGISTRY:
        for runner in row.runners:
            module, _, function = runner.partition(":")

            def stub(*paths, name=row.name):
                ran.append(name)
                return list(planted) if name == "plans" else []
            monkeypatch.setattr(importlib.import_module(module), function,
                                stub)


def test_all_flag_runs_every_battery(monkeypatch, tmp_path):
    """--all invokes every row's runners, in registry order, and merges
    their exit status (the real batteries run in CI and in each pass's
    own test module)."""
    from repro.analysis.findings import Finding
    from repro.analysis.registry import REGISTRY

    ran = []
    planted = [Finding.semantic("plan", "BWP001", "synthetic budget breach",
                                "kmeans")]
    _stub_every_runner(monkeypatch, ran, planted)
    src_file = tmp_path / "clean.py"
    src_file.write_text("x = 1\n")

    code, out = run_cli([str(src_file), "--all"])
    assert ran == [row.name for row in REGISTRY for _ in row.runners]
    assert len(set(ran)) == 11
    assert code == 1
    assert "plan[kmeans]: BWP001" in out


def test_plan_findings_round_trip_through_json_and_baseline(monkeypatch):
    import repro.analysis.plans as plans_mod
    from repro.analysis import JSON_REPORT_SCHEMA
    from repro.analysis.findings import Finding

    planted = [Finding(rule="BWP003", path="<plan:bayes>", line=0, col=0,
                       message="synthetic gap regression", source="plan",
                       scheme="bayes")]
    monkeypatch.setattr(plans_mod, "verify_plans", lambda: planted)

    code, raw = run_cli(["--plans", "--format", "json"])
    assert code == 1
    report = json.loads(raw)
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["findings"][0]["source"] == "plan"


def test_shape_findings_render_with_world(monkeypatch):
    import repro.analysis.shapes as shapes_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="SHP003", path="<shape:vgg16>", line=0, col=0,
                       message="synthetic wire drift", source="shape",
                       scheme="qsgd/sra", world=4)]
    monkeypatch.setattr(shapes_mod, "verify_shapes", lambda: planted)
    code, out = run_cli(["--shapes"])
    assert code == 1
    assert "shape[qsgd/sra@world=4]: SHP003" in out


def test_repro_analyze_forwards_plans_shapes_and_all(monkeypatch):
    import repro.analysis.plans as plans_mod
    import repro.analysis.shapes as shapes_mod

    ran = []
    monkeypatch.setattr(plans_mod, "verify_plans",
                        lambda: ran.append("plans") or [])
    monkeypatch.setattr(shapes_mod, "verify_shapes",
                        lambda: ran.append("shapes") or [])
    out = io.StringIO()
    code = repro_main(["analyze", "--plans", "--shapes"], out=out)
    assert code == 0
    assert ran == ["plans", "shapes"]


# -- pass selection (liveness) -------------------------------------------------

def test_liveness_flag_runs_clean():
    code, out = run_cli(["--liveness"])
    assert code == 0
    assert "clean" in out


def test_liveness_flag_skips_lint_paths():
    code, out = run_cli(["definitely/missing.py", "--liveness"])
    assert code == 0


def test_liveness_findings_round_trip_through_json_and_baseline(monkeypatch):
    import repro.analysis.liveness as liveness_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="DLV001", path="<liveness:ring@world=4/none>",
                       line=0, col=0,
                       message="synthetic wait-for cycle 0 -> 1 -> 0",
                       source="liveness", scheme="ring", world=4)]
    monkeypatch.setattr(liveness_mod, "verify_liveness", lambda: planted)

    code, raw = run_cli(["--liveness", "--format", "json"])
    assert code == 1
    report = json.loads(raw)
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["findings"][0]["source"] == "liveness"


def test_liveness_battery_findings_render_with_scheme_and_world(monkeypatch):
    import repro.analysis.liveness as liveness_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="DLV005", path="<liveness:partial@world=3/none>",
                       line=0, col=0, message="synthetic stranded carry",
                       source="liveness", scheme="partial", world=3)]
    monkeypatch.setattr(liveness_mod, "verify_liveness", lambda: planted)
    code, out = run_cli(["--liveness"])
    assert code == 1
    assert "liveness[partial@world=3]: DLV005" in out


def test_liveness_file_findings_render_like_lint(monkeypatch):
    import repro.analysis.liveness as liveness_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="DLV006", path="src/repro/collectives/x.py",
                       line=12, col=4, message="synthetic blocking call",
                       source="liveness", snippet="time.sleep(1)")]
    monkeypatch.setattr(liveness_mod, "verify_liveness", lambda: planted)
    code, out = run_cli(["--liveness"])
    assert code == 1
    assert "src/repro/collectives/x.py:12:5: DLV006" in out


# -- pass selection (sched) ----------------------------------------------------

def test_sched_flag_selects_only_the_fleet_certifier():
    from repro.analysis.cli import build_parser, select_passes

    args = build_parser().parse_args(["--sched"])
    assert select_passes(args) == ("sched",)
    args = build_parser().parse_args(["--sched", "--overlap"])
    assert select_passes(args) == ("overlap", "sched")


def test_sched_battery_findings_render_with_scheme_and_jobs(monkeypatch):
    import repro.analysis.sched as sched_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="SCD005", path="<sched:packed-static@n=12/x>",
                       line=0, col=0, message="synthetic isolation breach",
                       source="sched", scheme="packed-static", world=12)]
    monkeypatch.setattr(sched_mod, "verify_sched", lambda: planted)
    code, out = run_cli(["--sched"])
    assert code == 1
    assert "sched[packed-static@jobs=12]: SCD005" in out


def test_sched_findings_round_trip_through_json_and_baseline(monkeypatch):
    import repro.analysis.sched as sched_mod
    from repro.analysis.findings import Finding

    planted = [Finding(rule="SCD003", path="<sched:numa-adaptive@n=8/y>",
                       line=0, col=0,
                       message="synthetic conservation leak",
                       source="sched", scheme="numa-adaptive", world=8)]
    monkeypatch.setattr(sched_mod, "verify_sched", lambda: planted)

    code, raw = run_cli(["--sched", "--format", "json"])
    assert code == 1
    report = json.loads(raw)
    _validate(report, JSON_REPORT_SCHEMA)
    assert report["findings"][0]["source"] == "sched"


# -- a finding's presentation is a table row -----------------------------------

#: (source, rule, path, scheme, world, snippet) -> (render, fingerprint),
#: expected strings recorded at the commit before findings.SOURCES existed
GOLDEN = [
    ("schedule", "SCH002", "<schedule:ring@world=4>", "ring", 4, "",
     "schedule[ring@world=4]: SCH002 planted", "67ff0aba2cf5f53b"),
    ("contract", "CON003", "<contract:qsgd>", "qsgd", 0, "",
     "contract[qsgd]: CON003 planted", "f661d59fa8168d16"),
    ("race", "RACE001", "<race:toy@world=3>", "toy", 3, "",
     "race[toy@world=3]: RACE001 planted", "33e882fcc63e0b6e"),
    ("plan", "BWP001", "<plan:kmeans>", "kmeans", 0, "",
     "plan[kmeans]: BWP001 planted", "b02f15d374f01924"),
    ("shape", "SHP003", "<shape:vgg16>", "qsgd/sra", 4, "",
     "shape[qsgd/sra@world=4]: SHP003 planted", "1424b98fb44b55da"),
    ("health", "HLT002", "<health:crash-rejoin@world=4>", "crash-rejoin", 4,
     "", "health[crash-rejoin@world=4]: HLT002 planted", "65c3a532bd8780f1"),
    ("liveness", "DLV001", "<liveness:ring@world=4/none>", "ring", 4, "",
     "liveness[ring@world=4]: DLV001 planted", "c7e43becf6e19289"),
    ("overlap", "OVL003", "<overlap:sra@world=2/stack>", "sra", 2, "",
     "overlap[sra@world=2]: OVL003 planted", "d63ca7881b17dfbf"),
    ("sched", "SCD005", "<sched:packed-static@n=12/x>", "packed-static", 12,
     "", "sched[packed-static@jobs=12]: SCD005 planted", "e19bba3df54ab268"),
    ("elastic", "ELA003", "<elastic:spot-churn@world=4>", "spot-churn", 4, "",
     "elastic[spot-churn@world=4]: ELA003 planted", "3ac87d598890deab"),
    ("faults", "FLT001", "<faults:sra@world=4>", "sra", 4, "",
     "<faults:sra@world=4>:0:1: FLT001 planted", "b41a996f07618766"),
    ("liveness", "DLV006", "src/repro/collectives/x.py", "", 0,
     "time.sleep(1)",
     "src/repro/collectives/x.py:12:5: DLV006 planted", "d183519eb895b737"),
    ("overlap", "OVL006", "src/repro/nn/optim.py", "", 0, "p.data -= p.grad",
     "src/repro/nn/optim.py:12:5: OVL006 planted", "aab10d56be394ff1"),
    ("sched", "SCD007", "src/repro/sched/fleet.py", "", 0,
     "net.transfer(a, b, n, t)",
     "src/repro/sched/fleet.py:12:5: SCD007 planted", "3a95e668ed71427f"),
]


@pytest.mark.parametrize("source,rule,path,scheme,world,snippet,render,"
                         "fingerprint", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_finding_render_and_fingerprint_golden(source, rule, path, scheme,
                                               world, snippet, render,
                                               fingerprint):
    from repro.analysis.findings import Finding

    if snippet:
        finding = Finding(rule=rule, path=path, line=12, col=4,
                          message="planted", source=source, snippet=snippet)
    else:
        finding = Finding.semantic(source, rule, "planted", scheme, world,
                                   path)
        label = render[len(source) + 1:render.find("]")]
        if path == f"<{source}:{label}>":   # the default pseudo-path
            assert Finding.semantic(source, rule, "planted", scheme,
                                    world) == finding
    assert finding.render() == render
    assert finding.fingerprint == fingerprint
    assert finding.to_dict()["fingerprint"] == fingerprint
    assert list(finding.to_dict()) == [
        "rule", "path", "line", "col", "message", "source", "snippet",
        "scheme", "world", "fingerprint"]


def test_every_semantic_source_has_a_golden_row():
    from repro.analysis.findings import SOURCES

    assert set(SOURCES) <= {g[0] for g in GOLDEN}
    assert len(SOURCES) == 10


# -- `repro analyze` hands its argv to repro.analysis untouched ----------------

@pytest.mark.parametrize("argv,stubbed", [
    (["--schedule-only"], False),
    (["--contracts", "--races"], False),
    (["--all", "--format", "json"], True),
    (["--all", "--plans"], False),             # usage error
    (["--no-schedule", "--races"], False),     # usage error
], ids=["schedule-only", "contracts+races", "all-stubbed", "usage-all+plans",
        "usage-no-schedule+races"])
def test_repro_analyze_equals_python_m_repro_analysis(argv, stubbed,
                                                      monkeypatch, tmp_path,
                                                      capsys):
    if stubbed:
        from repro.analysis.findings import Finding

        src_file = tmp_path / "clean.py"
        src_file.write_text("x = 1\n")
        argv = [str(src_file), *argv]
        _stub_every_runner(monkeypatch, [], [Finding.semantic(
            "plan", "BWP003", "synthetic gap regression", "bayes")])
    direct_code, direct_out = run_cli(argv)
    direct_err = capsys.readouterr().err
    out = io.StringIO()
    code = repro_main(["analyze", *argv], out=out)
    assert (code, out.getvalue()) == (direct_code, direct_out)
    assert capsys.readouterr().err == direct_err
    if stubbed:
        assert code == 1 and json.loads(direct_out)["summary"]["total"] == 1


def test_repro_cli_declares_no_analysis_flag_of_its_own():
    from repro.cli import build_parser

    analyze = build_parser()._subparsers._group_actions[0].choices["analyze"]
    assert [a.dest for a in analyze._actions] == []
    with pytest.raises(SystemExit) as exc:    # argparse-level usage error
        repro_main(["analyze", "--no-such-flag"])
    assert exc.value.code == 2


# -- one prose copy: docs, --help and README agree with the registry -----------

def test_docs_help_and_readme_agree_with_the_registry():
    import re

    from repro.analysis.cli import build_parser
    from repro.analysis.registry import REGISTRY

    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "docs", "analysis.md")) as handle:
        docs = handle.read()
    headings = re.findall(r"^## Pillar (\d+): the (.+) \((\w+) rules\)$",
                          docs, flags=re.M)
    assert headings == [(str(i + 1), row.title, row.family)
                        for i, row in enumerate(REGISTRY)]

    help_text = " ".join(build_parser().format_help().split())
    for row in REGISTRY:
        assert f"{row.title} ({row.family})" in help_text.replace("- ", "-")
        if row.name not in ("lint", "schedule"):
            assert f"--{row.name} " in help_text
    assert ", ".join(row.name for row in REGISTRY) in help_text

    with open(os.path.join(root, "README.md")) as handle:
        readme = handle.read()
    words = ["zero", "one", "two", "three", "four", "five", "six", "seven",
             "eight", "nine", "ten", "eleven", "twelve", "thirteen",
             "fourteen", "fifteen"]
    counts = set(re.findall(r"all (\w+) passes", readme + docs))
    assert counts == {words[len(REGISTRY)]}
    for row in REGISTRY:
        assert f"{row.title} ({row.family}" in readme
