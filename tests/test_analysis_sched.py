"""Fleet-schedule certifier: every SCD rule fires on a tampered or
doctored cell, the clean fleets certify clean, and the job-tag lint
catches untagged scheduling calls.

The tamper tests are the pillar's teeth: each one takes a healthy
fleet, breaks exactly one invariant (in the log, the live counters, or
an injected probe network), and proves the matching rule reports it.
"""

import json
import os

import pytest

from repro.analysis.findings import Finding
from repro.analysis.sched import (
    SCD_RULES,
    _certify_conservation,
    _certify_fairness,
    _certify_isolation,
    _certify_log,
    _certify_metric_degenerates,
    _certify_throttles,
    certify_fleet,
    lint_job_tagging,
    lint_job_tagging_source,
    tagging_default_roots,
    verify_fleet_log,
    verify_sched,
)
from repro.cluster import Network, get_machine, make_cluster
from repro.models import ModelSpec, TensorSpec
from repro.sched import (
    DYADIC_SHARES,
    FleetSimulator,
    JobSpec,
    apply_throttles,
    fleet_cases,
    sample_fleet,
)

PATH = "<sched:test@n=3/unit>"

#: comm-dominated probe model (same idiom as test_sched_fleet): tiny
#: compute makes fleets cheap and contention math visible
TINY = ModelSpec("tinynet", tensors=[
    TensorSpec("fc1.weight", "linear", 1 << 20, flops=1e3, position=0,
               shape=(1024, 1024)),
    TensorSpec("fc2.weight", "linear", 1 << 20, flops=1e3, position=1,
               shape=(1024, 1024)),
], default_batch_per_gpu=1)
LIB = {"tinynet": TINY}


def rules_of(findings):
    return {f.rule for f in findings}


def messages_of(findings):
    return " | ".join(f.message for f in findings)


def run_fleet(jobs, topology=None, **kwargs):
    topo = topology if topology is not None \
        else get_machine("rtx3090-8x").topology()
    kwargs.setdefault("spec_library", LIB)
    kwargs.setdefault("trace", True)
    kwargs.setdefault("audit", True)
    return FleetSimulator(topo, jobs, **kwargs).run()


def shared_jobs():
    """Three 2-rank jobs on one box: shared host-memory links, one
    throttled tenant so SCD004 has a non-trivial share to probe."""
    return [JobSpec(1, "tinynet", 2, 0.0, 2),
            JobSpec(2, "tinynet", 2, 0.0, 2, throttle=0.5),
            JobSpec(3, "tinynet", 2, 0.1, 2)]


def disjoint_jobs():
    """Two full-machine jobs on a 2-node fleet: private links."""
    return [JobSpec(1, "tinynet", 8, 0.0, 2),
            JobSpec(2, "tinynet", 8, 0.0, 2)]


@pytest.fixture(scope="module")
def clean_result():
    """A healthy shared-link fleet; read-only in the tests that use it
    (tamper tests parse a fresh payload or run their own fleet)."""
    return run_fleet(shared_jobs())


def fresh_payload(result):
    return json.loads(result.log_bytes().decode("utf-8"))


def record_of(payload, event, job):
    for record in payload["records"]:
        if record["event"] == event and record["job"] == job:
            return record
    raise AssertionError(f"no {event!r} record for job {job}")


# -- the rule table and the battery ---------------------------------------------

def test_scd_rule_table_is_complete():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "sched"]
    assert row.rule_table is SCD_RULES and row.family == "SCD"
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py


def test_battery_covers_the_advertised_axes():
    cases = fleet_cases()
    assert len(cases) == 30
    assert len({c.name for c in cases} | {c.path for c in cases}) >= 30
    assert {c.policy for c in cases} == {"packed", "spread", "numa"}
    assert {c.routing for c in cases} == {"static", "adaptive"}
    sizes = {c.n_jobs for c in cases}
    assert min(sizes) == 4 and max(sizes) == 200
    throttled = [c for c in cases if c.throttle_stride]
    assert throttled
    for case in throttled:
        shares = {s.throttle for s in case.jobs()} - {1.0}
        assert shares and shares <= set(DYADIC_SHARES)
    first = cases[0]
    assert first.path == \
        f"<sched:{first.policy}-{first.routing}@n={first.n_jobs}/{first.name}>"


def test_apply_throttles_rejects_bad_stride():
    specs = sample_fleet(4, seed=0, models=("resnet50",))
    with pytest.raises(ValueError):
        apply_throttles(specs, stride=0)
    throttled = apply_throttles(specs, stride=2)
    assert [s.throttle for s in throttled] == [0.5, 1.0, 0.25, 1.0]


# -- clean fleets certify clean --------------------------------------------------

def test_clean_shared_fleet_certifies_clean(clean_result):
    assert certify_fleet(clean_result, PATH) == []


def test_clean_disjoint_fleet_certifies_clean():
    result = run_fleet(disjoint_jobs(), make_cluster("rtx3090-8x", 2))
    assert certify_fleet(result, PATH) == []


def test_verify_sched_first_battery_cell_is_clean():
    # one real battery cell end-to-end, plus the degenerate metric
    # probes and the job-tag lint that verify_sched always runs
    assert verify_sched(cases=fleet_cases()[:1]) == []


def test_sched_findings_render_with_scheme_and_jobs():
    finding = Finding(rule="SCD001", path=PATH, line=0, col=0,
                      message="synthetic", source="sched",
                      scheme="packed-static", world=3)
    assert finding.render() == \
        "sched[packed-static@jobs=3]: SCD001 synthetic"
    twin = Finding(rule="SCD001", path="<sched:other@n=3/unit>", line=0,
                   col=0, message="synthetic", source="sched",
                   scheme="packed-static", world=3)
    # the pseudo-path is part of the identity: same message in another
    # cell must not collide in the baseline
    assert finding.fingerprint != twin.fingerprint


# -- SCD001: placement soundness from the log ------------------------------------

def test_scd001_duplicate_gpus_flagged(clean_result):
    payload = fresh_payload(clean_result)
    admit = record_of(payload, "admit", 1)
    admit["ranks"] = [admit["ranks"][0]] * 2
    findings = verify_fleet_log(payload, PATH)
    assert "SCD001" in rules_of(findings)
    assert "duplicate GPUs" in messages_of(findings)


def test_scd001_out_of_range_gpu_flagged(clean_result):
    payload = fresh_payload(clean_result)
    record_of(payload, "admit", 2)["ranks"][1] = 999
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD001"}
    assert "outside the fleet's" in messages_of(findings)


def test_scd001_double_booking_flagged(clean_result):
    payload = fresh_payload(clean_result)
    first = record_of(payload, "admit", 1)
    record_of(payload, "admit", 2)["ranks"] = list(first["ranks"])
    findings = verify_fleet_log(payload, PATH)
    assert "SCD001" in rules_of(findings)
    assert "double booking" in messages_of(findings)


def test_scd001_world_size_mismatch_flagged(clean_result):
    payload = fresh_payload(clean_result)
    admit = record_of(payload, "admit", 3)
    admit["ranks"] = admit["ranks"][:1]
    findings = verify_fleet_log(payload, PATH)
    assert "SCD001" in rules_of(findings)
    assert "its spec asks for 2" in messages_of(findings)


def test_scd001_unknown_job_flagged(clean_result):
    payload = fresh_payload(clean_result)
    payload["records"].append({"event": "arrive", "job": 99, "t": 0.0})
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD001"}
    assert "unknown job 99" in messages_of(findings)


# -- SCD002: admission liveness, FIFO, step chains -------------------------------

def test_scd002_starvation_flagged(clean_result):
    payload = fresh_payload(clean_result)
    payload["records"] = [
        r for r in payload["records"]
        if r["job"] != 3 or r["event"] == "arrive"]
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD002"}
    assert "never admitted — starvation" in messages_of(findings)


def test_scd002_unfinished_job_flagged(clean_result):
    payload = fresh_payload(clean_result)
    payload["records"] = [
        r for r in payload["records"]
        if not (r["job"] == 3 and r["event"] == "finish")]
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD002"}
    assert "never finishes" in messages_of(findings)


def test_scd002_fifo_violation_flagged(clean_result):
    payload = fresh_payload(clean_result)
    records = payload["records"]
    i = records.index(record_of(payload, "admit", 1))
    j = records.index(record_of(payload, "admit", 2))
    records[i], records[j] = records[j], records[i]
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD002"}
    assert "leaves the FIFO arrival order" in messages_of(findings)


def test_scd002_torn_step_chain_flagged(clean_result):
    payload = fresh_payload(clean_result)
    steps = [r for r in payload["records"]
             if r["event"] == "step" and r["job"] == 1]
    steps[1]["step"] = 3
    findings = verify_fleet_log(payload, PATH)
    assert rules_of(findings) == {"SCD002"}
    assert "step chain torn" in messages_of(findings)


def test_scd002_step_start_gap_flagged(clean_result):
    payload = fresh_payload(clean_result)
    steps = [r for r in payload["records"]
             if r["event"] == "step" and r["job"] == 2]
    steps[1]["t"] = steps[1]["t"] + 123.0
    findings = verify_fleet_log(payload, PATH)
    assert "SCD002" in rules_of(findings)
    assert "not at its step 1 end" in messages_of(findings)


def test_scd002_queue_wait_accounting_mismatch_flagged():
    result = run_fleet(shared_jobs())
    result.states[0].admit_time += 1.0   # books a wait the log never saw
    findings = _certify_log(result, PATH)
    assert rules_of(findings) == {"SCD002"}
    assert "queue_wait" in messages_of(findings)


# -- SCD003: exact conservation ---------------------------------------------------

def pick_busy_link(result):
    for name, resource in sorted(result.network.pool.resources().items()):
        if resource.busy_time and not name.startswith("gpu"):
            return resource
    raise AssertionError("no busy shared resource in the fleet")


def test_scd003_requires_the_audit_ledger():
    result = run_fleet(shared_jobs(), audit=False)
    findings = _certify_conservation(result, PATH)
    assert rules_of(findings) == {"SCD003"}
    assert "without the conservation audit ledger" in messages_of(findings)


def test_scd003_counter_mutation_bypassing_ledger_flagged():
    result = run_fleet(shared_jobs())
    pick_busy_link(result).busy_time += 1.0
    findings = _certify_conservation(result, PATH)
    assert rules_of(findings) == {"SCD003"}
    assert "bypassed the ledger" in messages_of(findings)


def test_scd003_untagged_occupation_flagged():
    result = run_fleet(shared_jobs())
    resource = pick_busy_link(result)
    resource.ledger.append((None, 0.25))
    findings = _certify_conservation(result, PATH)
    assert rules_of(findings) == {"SCD003"}
    assert "no job tag" in messages_of(findings)


def test_scd003_wire_byte_mismatch_flagged():
    result = run_fleet(shared_jobs())
    result.network._job_bytes[1] += 1
    findings = _certify_conservation(result, PATH)
    assert rules_of(findings) == {"SCD003"}
    assert "job-side wire_bytes" in messages_of(findings)
    assert "do not conserve" in messages_of(findings)


# -- SCD004: throttle semantics ---------------------------------------------------

class CheatingNetwork(Network):
    """A network that silently ignores declared throttles."""

    def set_job_throttle(self, job, rate):
        pass


def test_scd004_ignored_throttle_flagged(clean_result):
    findings = _certify_throttles(clean_result, PATH,
                                  network_cls=CheatingNetwork)
    assert rules_of(findings) == {"SCD004"}
    assert "does not scale bandwidth as declared" in messages_of(findings)


def test_scd004_unreleased_throttle_flagged():
    result = run_fleet(shared_jobs())
    result.network.set_job_throttle(1, 0.5)   # job 1 already departed
    findings = _certify_throttles(result, PATH)
    assert rules_of(findings) == {"SCD004"}
    assert "never released" in messages_of(findings)


# -- SCD005: isolation bounds -----------------------------------------------------

def step_records(result, job):
    return [r for r in result.records
            if r["event"] == "step" and r["job"] == job]


def test_scd005_lower_bound_violation_flagged():
    result = run_fleet(shared_jobs())
    record = step_records(result, 2)[0]
    record["end"] = record["t"]   # a zero-duration step beats isolation
    findings = _certify_isolation(result, PATH)
    assert rules_of(findings) == {"SCD005"}
    assert "contention accelerated it" in messages_of(findings)


def test_scd005_step_count_mismatch_flagged(monkeypatch):
    result = run_fleet(shared_jobs())
    monkeypatch.setattr(result, "isolated_replay", lambda job: [])
    findings = _certify_isolation(result, PATH)
    assert rules_of(findings) == {"SCD005"}
    assert "cannot compare isolation" in messages_of(findings)


def test_scd005_disjoint_fleet_must_be_bit_identical():
    result = run_fleet(disjoint_jobs(), make_cluster("rtx3090-8x", 2))
    assert _certify_isolation(result, PATH) == []
    step_records(result, 2)[0]["end"] += 0.5   # delayed, but by nobody
    findings = _certify_isolation(result, PATH)
    assert rules_of(findings) == {"SCD005"}
    assert "not bit-identical" in messages_of(findings)


def test_scd005_serialization_ceiling_flagged():
    result = run_fleet(shared_jobs())
    step_records(result, 1)[1]["end"] += 1000.0   # delay beyond any rival
    findings = _certify_isolation(result, PATH)
    assert rules_of(findings) == {"SCD005"}
    assert "more than full serialization" in messages_of(findings)


# -- SCD006: fairness-metric validity ---------------------------------------------

def test_scd006_degenerate_probes_certify_clean():
    assert _certify_metric_degenerates() == []


def test_scd006_out_of_range_jain_flagged(clean_result, monkeypatch):
    import repro.sched.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "jain_fairness", lambda values: 1.5)
    findings = _certify_fairness(clean_result, PATH)
    assert rules_of(findings) == {"SCD006"}
    assert "outside (0, 1]" in messages_of(findings)


def test_scd006_nondeterministic_baseline_replay_flagged(clean_result,
                                                         monkeypatch):
    import repro.sched.metrics as metrics_mod

    real = metrics_mod.isolated_step_times
    replays = []

    def drifting(result):
        replays.append(len(replays))
        return {job: t + replays[-1] * 1e-9
                for job, t in real(result).items()}

    monkeypatch.setattr(metrics_mod, "isolated_step_times", drifting)
    findings = _certify_fairness(clean_result, PATH)
    assert rules_of(findings) == {"SCD006"}
    assert "nondeterministic" in messages_of(findings)
    # the baselines compute_metrics computed vs ONE fresh replay
    assert replays == [0, 1]


def test_scd006_raising_percentile_flagged(monkeypatch):
    import repro.sched.metrics as metrics_mod

    def boom(values, p):
        raise ValueError("percentile of empty sequence")

    monkeypatch.setattr(metrics_mod, "percentile", boom)
    findings = _certify_metric_degenerates()
    assert rules_of(findings) == {"SCD006"}
    assert "raised ValueError" in messages_of(findings)


# -- SCD007: job-tag lint ---------------------------------------------------------

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "analysis",
                       "scd007_job_tagging.py")


def test_scd007_fixture_flags_only_the_untagged_calls():
    with open(FIXTURE, encoding="utf-8") as handle:
        source = handle.read()
    findings = lint_job_tagging_source(source, FIXTURE)
    assert rules_of(findings) == {"SCD007"}
    assert len(findings) == 4
    assert all("carries no job tag" in f.message for f in findings)
    flagged = {f.snippet for f in findings}
    assert any("leaky_transfer" in s or "transfer" in s for s in flagged)
    # the route commit occupies links like a transfer: audited the same way
    assert any("simclock.commit_route" in f.message
               and "leaky_route" in f.message for f in findings)
    # tagged calls and unqualified names stay silent
    assert not any("job=state.spec.job_id" in s for s in flagged)


def test_scd007_occurrence_numbering_keeps_twin_lines_distinct(tmp_path):
    twin = tmp_path / "twins.py"
    twin.write_text(
        "def drain(pool, ready):\n"
        "    pool.schedule(ready, 1.0)\n"
        "    pool.schedule(ready, 1.0)\n")
    findings = lint_job_tagging(roots=[str(twin)])
    assert [f.occurrence for f in findings] == [0, 1]
    assert len({f.fingerprint for f in findings}) == 2


def test_scd007_default_roots_cover_sched_and_network():
    roots = tagging_default_roots()
    assert roots[0].endswith(os.path.join("repro", "sched"))
    assert roots[1].endswith(os.path.join("cluster", "network.py"))
    # the shipped scheduler and shared network are tag-clean
    assert lint_job_tagging() == []


# -- the tampered-log fixture CI replays ------------------------------------------

TAMPERED_LOG = os.path.join(os.path.dirname(__file__), "fixtures",
                            "analysis", "scd_tampered_fleet_log.json")


def test_tampered_fleet_log_fixture_fails_closed():
    with open(TAMPERED_LOG, encoding="utf-8") as handle:
        payload = json.load(handle)
    findings = verify_fleet_log(payload, "<sched:tampered-fixture>")
    assert "SCD001" in rules_of(findings)
    assert "double booking" in messages_of(findings)
