"""ELA battery: rule table, clean certification, tampered logs trip
ELA002, pass selection and rendering.

The heavyweight end-to-end properties (convergence parity, respec
feasibility, byte-identical logs) are exercised directly against the
trainer in ``test_elastic.py``; here we certify the battery itself —
its sub-verifiers come back clean on the stock campaigns, and the pure
log audit behind ELA002 fails closed on a doctored record stream.
"""

import io

import pytest

from repro.analysis.elastic import (
    ELA_RULES,
    ELASTIC_CAMPAIGNS,
    LOSS_TOLERANCE,
    verify_drain_protocol,
    verify_elastic,
    verify_no_ghost_gradients,
)
from repro.analysis.findings import Finding
from repro.analysis.health import (
    WORLD,
    CampaignRecords,
    verify_detection_latency,
    verify_health,
)
from repro.faults import FaultRecord, check_drain_protocol, make_campaign


def _finding(rule, campaign, message):
    return Finding.semantic("elastic", rule, message, campaign, WORLD)


def run_cli(argv):
    from repro.analysis.cli import main as analysis_main

    out = io.StringIO()
    code = analysis_main(argv, out=out)
    return code, out.getvalue()


# -- the rule table ----------------------------------------------------------

def test_ela_rule_table_is_complete():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "elastic"]
    assert row.rule_table is ELA_RULES and row.family == "ELA"
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py
    assert ELASTIC_CAMPAIGNS == ("spot-churn", "autoscale-burst")
    assert 0 < LOSS_TOLERANCE <= 0.02


# -- clean campaigns certify clean -------------------------------------------

def test_stock_campaigns_pass_the_drain_protocol():
    assert verify_drain_protocol() == []


def test_full_batteries_certify_clean_and_train_each_cell_once(monkeypatch):
    """verify_elastic / verify_health share one CampaignRecords per
    battery: every distinct (plan, supervised, adaptive, repeat) cell is
    trained exactly once (9 and 8 twenty-step worlds, not 15 and 10)."""
    import repro.analysis.health as health_mod

    trained = []
    real = health_mod.CampaignRecords.trainer
    monkeypatch.setattr(
        health_mod.CampaignRecords, "trainer",
        staticmethod(lambda *args, **kw: trained.append((args, kw))
                     or real(*args, **kw)))
    assert verify_elastic() == []
    assert len(trained) == 9
    del trained[:]
    assert verify_health() == []
    # 8 memoized cells + the 5 store/restore trainers of HLT004/HLT005
    assert len(trained) == 8 + 5


# -- ELA002 fails closed on tampered logs ------------------------------------

def _record(step, kind, **detail):
    return FaultRecord(step=step, kind=kind,
                       detail=tuple(sorted(detail.items())))


def test_tampered_log_missing_exit_trips_ela002():
    """Strip a warned rank's resolution from the log: audit flags it."""
    plan = make_campaign("spot-churn", 4)
    warned = next(e for e in plan.events if e.kind == "preempt_warning")
    records = [_record(warned.start, "preempt_warning", rank=warned.rank,
                       deadline=warned.deadline)]
    messages = check_drain_protocol(plan, records)
    assert any("neither drained out nor degraded" in m for m in messages)
    findings = [_finding("ELA002", "spot-churn", m) for m in messages]
    assert {f.rule for f in findings} == {"ELA002"}


def test_tampered_log_late_exit_trips_ela002():
    """A forged exit stamped at the deadline is sending past reclaim."""
    plan = make_campaign("spot-churn", 4)
    warned = next(e for e in plan.events if e.kind == "preempt_warning")
    records = [
        _record(warned.start, "preempt_warning", rank=warned.rank,
                deadline=warned.deadline),
        _record(warned.deadline, "spot_exit", rank=warned.rank,
                deadline=warned.deadline),
    ]
    messages = check_drain_protocol(plan, records)
    assert any("kept sending after the provider reclaimed" in m
               for m in messages)


# -- the same teeth through a shared record ----------------------------------

def test_checks_audit_the_shared_record_not_a_fresh_run():
    """A check handed ``records`` grades that record: tamper the one
    memoized spot-churn run and every check reading it reports it, with
    the findings a standalone run of the same tampered log would give."""
    records = CampaignRecords()
    assert verify_drain_protocol(records) == []
    plan = make_campaign("spot-churn", WORLD)
    record = records.get(plan, supervised=False)
    runtime = record.runtime
    exits = [r for r in runtime.records if r.kind == "spot_exit"]
    assert exits
    runtime.records[:] = [r for r in runtime.records
                          if r.kind != "spot_exit"]

    findings = verify_drain_protocol(records)
    expected = [_finding("ELA002", "spot-churn", m)
                for m in check_drain_protocol(plan, runtime.records)]
    assert findings == expected and findings
    assert all("neither drained out nor degraded" in f.message
               for f in findings)
    assert {f.path for f in findings} == {"<elastic:spot-churn@world=4>"}

    # ELA001 reads the same record: poison a departed replica's weights
    assert verify_no_ghost_gradients(records) == []
    rank, weights = next(iter(record.frozen.items()))
    next(iter(weights.values()))[...] += 1.0
    ghosts = verify_no_ghost_gradients(records)
    assert [f.rule for f in ghosts] == ["ELA001"]
    assert f"departed rank {rank}'s parameter" in ghosts[0].message


def test_health_checks_audit_the_shared_record():
    records = CampaignRecords()
    assert verify_detection_latency(records) == []
    record = records.get(make_campaign("crash-rejoin", WORLD))
    record.runtime.records[:] = [r for r in record.runtime.records
                                 if r.kind != "suspect_crash"]
    findings = verify_detection_latency(records)
    assert [f.render() for f in findings] == [
        "health[crash-rejoin@world=4]: HLT002 rank 3 crash at step 4 "
        "never suspected in 20 steps"]
    # a check called without records still runs (and is clean) standalone
    assert verify_detection_latency() == []


# -- pass selection ----------------------------------------------------------

def test_elastic_flag_selects_only_the_ela_battery():
    from repro.analysis.cli import ALL_PASSES, build_parser, select_passes

    args = build_parser().parse_args(["--elastic"])
    assert select_passes(args) == ("elastic",)
    args = build_parser().parse_args(["--elastic", "--sched"])
    assert select_passes(args) == ("sched", "elastic")
    assert ALL_PASSES[-1] == "elastic"


def test_elastic_conflicts_with_schedule_only():
    with pytest.raises(SystemExit):
        from repro.analysis.cli import build_parser, select_passes

        select_passes(build_parser().parse_args(
            ["--schedule-only", "--elastic"]))


def test_elastic_battery_findings_render_with_campaign(monkeypatch):
    import repro.analysis.elastic as elastic_mod

    planted = [_finding("ELA003", "spot-churn", "synthetic drift")]
    monkeypatch.setattr(elastic_mod, "verify_elastic", lambda: planted)
    code, out = run_cli(["--elastic"])
    assert code == 1
    assert "elastic[spot-churn@world=4]: ELA003 synthetic drift" in out


def test_elastic_findings_fingerprint_by_campaign():
    a = _finding("ELA005", "spot-churn", "synthetic")
    b = _finding("ELA005", "autoscale-burst", "synthetic")
    assert isinstance(a, Finding)
    assert a.fingerprint != b.fingerprint
    assert a.render() == "elastic[spot-churn@world=4]: ELA005 synthetic"
