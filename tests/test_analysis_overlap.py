"""Overlap certifier: every OVL rule fires on a tampered cell, the
clean battery certifies clean, and the OVL006 consumer lint holds the
real optimizer/trainer path to zero findings."""

import dataclasses
import os
import textwrap

import pytest

from repro.analysis.cli import build_parser, select_passes
from repro.analysis.overlap import (
    CELL_STEPS,
    OVL_RULES,
    OverlapCase,
    analyze_overlap_trace,
    certify_case,
    certify_trainer,
    check_fusion_conservation,
    check_makespan,
    check_priority,
    check_state_attribution,
    check_use_before_reduce,
    consumer_default_roots,
    lint_grad_consumer_source,
    lint_grad_consumers,
    overlap_cases,
    verify_overlap,
    _model_layers,
    _run_cell,
)
from repro.collectives.timing import SCHEMES
from repro.collectives.trace import BufferAccess, OverlapEvent

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "analysis",
                       "ovl006_grad_consumer.py")


def rules_of(findings):
    return {f.rule for f in findings}


def fresh_cell(scheme="sra", world=2, model="stack"):
    case = OverlapCase(scheme, world, model)
    trace, reports, _ = _run_cell(case)
    return case, trace, reports, _model_layers(model)


# -- the battery itself -------------------------------------------------------

def test_battery_covers_every_scheme_and_model():
    cases = overlap_cases(worlds=(2, 4))
    schemes = {case.scheme for case in cases}
    assert schemes == set(SCHEMES) | {"partial"}
    assert {case.model for case in cases} == {"stack", "mixed"}
    assert len(cases) == len(schemes) * 2 * 2
    assert cases[0].path.startswith("<overlap:")


def test_world_3_battery_certifies_clean():
    findings = verify_overlap(worlds=(3,))
    assert findings == []


@pytest.mark.parametrize("scheme", ["ring", "hier", "partial"])
def test_single_cells_certify_clean(scheme):
    assert certify_case(OverlapCase(scheme, 4, "mixed")) == []


def test_trainer_cell_certifies_clean():
    assert certify_trainer(world=3, steps=2) == []


_CELL_DIGEST = """
import hashlib
from repro.analysis.overlap import OverlapCase, _run_cell
from repro.core.engine import CommunicationEngine

digest = hashlib.sha256()
real = CommunicationEngine.reduce_overlapped

def hashing(self, per_worker, *args, **kwargs):
    for worker in per_worker:
        for name in sorted(worker):
            digest.update(worker[name].tobytes())
    return real(self, per_worker, *args, **kwargs)

CommunicationEngine.reduce_overlapped = hashing
for case in (OverlapCase("sra", 2, "stack"), OverlapCase("partial", 3, "mixed")):
    _, reports, _ = _run_cell(case)
    digest.update(repr(reports).encode())
print(digest.hexdigest())
"""


def test_cell_data_is_identical_across_hash_seeds():
    """The battery is seeded and deterministic: two processes with
    different PYTHONHASHSEED certify the same gradients and reports
    (the per-cell seed once came from the salted builtin hash())."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _CELL_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_cell_reports_carry_the_timeline():
    _, _, reports, layers = fresh_cell(model="mixed")
    assert len(reports) == CELL_STEPS
    for report in reports:
        assert len(report.buckets) >= 2
        assert report.overlapped_time < report.sequential_time
        assert report.overlap_ratio > 1.0
        covered = sorted(name for bucket in report.buckets
                         for name in bucket.layer_names)
        assert covered == sorted(name for name, _ in layers)


# -- OVL001: use-before-reduce ------------------------------------------------

def test_ovl001_fires_on_missing_bucket():
    case, trace, reports, layers = fresh_cell()
    names = [name for name, _ in layers] + ["ghost"]
    findings = check_use_before_reduce(case, trace, reports, names)
    assert rules_of(findings) == {"OVL001"}
    assert any("no bucket carries" in f.message for f in findings)


def test_ovl001_fires_on_consume_before_land():
    case, trace, reports, layers = fresh_cell()
    # rewind one grad_consumed event to before everything else
    for i, event in enumerate(trace.overlap_events):
        if event.kind == "grad_consumed" and event.step == 0 \
                and event.layer == "layer0":
            trace.overlap_events[i] = dataclasses.replace(
                event, t=-1.0, pos=0)
            break
    else:
        pytest.fail("no grad_consumed event for layer0 in step 0")
    findings = check_use_before_reduce(
        case, trace, reports, [name for name, _ in layers])
    assert rules_of(findings) == {"OVL001"}
    assert any("consumed before its reduction landed" in f.message
               for f in findings)


# -- OVL002: fusion conservation ----------------------------------------------

def test_ovl002_fires_on_dropped_bucket():
    case, _, reports, layers = fresh_cell()
    reports[0].buckets.pop()
    findings = check_fusion_conservation(case, reports, layers)
    assert "OVL002" in rules_of(findings)
    assert any("reduced twice or" in f.message for f in findings)


def test_ovl002_fires_on_byte_mismatch():
    case = OverlapCase("sra", 2, "stack")
    _, reports, fed = _run_cell(case)
    layers = _model_layers("stack")
    assert check_fusion_conservation(case, reports, layers, fed) == []
    reports[1].buckets[0].dense_bytes += 4
    reports[2].buckets[0].wire_bytes += 1
    # the serialized ground truth is measured by the certifier from the
    # gradients the cell fed: one quantization bucket short of what the
    # spec was sized for, the payload no longer matches the claim
    short = reports[3].buckets[0].layer_names[0]
    fed[3] = {**fed[3], short: fed[3][short][:-32]}
    findings = check_fusion_conservation(case, reports, layers, fed)
    assert rules_of(findings) == {"OVL002"}
    messages = " | ".join(f.message for f in findings)
    assert "dense accounting" in messages
    assert "wire accounting" in messages
    assert "serialized payload" in messages
    # without the fed gradients only the two accounting legs can speak
    assert "serialized payload" not in " | ".join(
        f.message for f in check_fusion_conservation(case, reports, layers))


def test_overlapped_entry_points_take_no_certifier_option():
    """``measure_payload`` was set by the certifier alone; the ground
    truth is now computed in ``analysis/overlap.py``."""
    import inspect

    from repro.core.ddp import CGXDistributedDataParallel
    from repro.core.engine import CommunicationEngine
    from repro.core.overlap import OverlapBucket

    for fn in (CommunicationEngine.reduce_overlapped,
               CGXDistributedDataParallel.synchronize_overlapped):
        assert "measure_payload" not in inspect.signature(fn).parameters
    assert "measured_bytes" not in {
        f.name for f in dataclasses.fields(OverlapBucket)}


# -- OVL003: launch priority --------------------------------------------------

def test_ovl003_fires_on_launch_before_seal():
    case, _, reports, _ = fresh_cell()
    bucket = reports[0].buckets[-1]
    bucket.launch_t = bucket.ready_t - 1.0
    findings = check_priority(case, reports)
    assert "OVL003" in rules_of(findings)
    assert any("before sealing" in f.message for f in findings)


def test_ovl003_fires_on_channel_overlap():
    case, _, reports, _ = fresh_cell()
    ordered = sorted(reports[0].buckets, key=lambda b: b.launch_t)
    # stretch the first transfer over the second launch
    ordered[0].landed_t = ordered[1].launch_t + 1.0
    findings = check_priority(case, reports)
    assert "OVL003" in rules_of(findings)
    assert any("still held the channel" in f.message for f in findings)


def test_ovl003_fires_on_priority_inversion():
    case, _, reports, _ = fresh_cell()
    ordered = sorted(reports[0].buckets, key=lambda b: b.launch_t)
    # make the first-launched bucket the least urgent: the sealed
    # better bucket it jumped becomes an inversion
    ordered[0].first_needed = max(b.first_needed for b in ordered) + 1
    ordered[1].ready_t = ordered[0].launch_t
    findings = check_priority(case, reports)
    assert "OVL003" in rules_of(findings)
    assert any("priority inversion" in f.message for f in findings)


# -- OVL004: state attribution ------------------------------------------------

def test_ovl004_fires_on_unattributed_state_access():
    case, trace, reports, _ = fresh_cell()
    trace.timeline.append(
        BufferAccess("update", 0, "state", repr("stray-key"), 0, 0, ""))
    findings = check_state_attribution(case, trace, reports)
    assert rules_of(findings) == {"OVL004"}
    assert any("outside every bucket's execution span" in f.message
               for f in findings)


def test_ovl004_fires_on_shared_state_key():
    case, trace, reports, _ = fresh_cell()
    buckets = reports[0].buckets
    # two buckets claiming the same execution span co-own every state
    # key the span contains
    buckets[1].exec_span = buckets[0].exec_span
    findings = check_state_attribution(case, trace, reports)
    assert "OVL004" in rules_of(findings)
    assert any("two in-flight reductions share residual state"
               in f.message for f in findings)


def test_ovl004_fires_on_missing_execution_span():
    case, trace, reports, _ = fresh_cell()
    reports[0].buckets[0].exec_span = (-1, -1)
    findings = check_state_attribution(case, trace, reports)
    assert "OVL004" in rules_of(findings)
    assert any("the reduction never ran" in f.message for f in findings)


# -- OVL005: makespan bound ---------------------------------------------------

def test_ovl005_fires_on_busted_makespan():
    case, _, reports, _ = fresh_cell()
    reports[0].overlapped_time = 2.0 * reports[0].sequential_time
    findings = check_makespan(case, reports)
    assert rules_of(findings) == {"OVL005"}
    messages = " | ".join(f.message for f in findings)
    assert "exceeds the bound" in messages
    assert "overlap bought" in messages


# -- combining the dynamic rules ----------------------------------------------

def test_analyze_overlap_trace_collects_all_rules():
    case, trace, reports, layers = fresh_cell()
    reports[0].buckets[0].dense_bytes += 4
    reports[1].overlapped_time = 2.0 * reports[1].sequential_time
    findings = analyze_overlap_trace(case, trace, reports, layers)
    assert {"OVL002", "OVL005"} <= rules_of(findings)
    for finding in findings:
        assert finding.source == "overlap"
        assert finding.path == case.path
        assert finding.rule in OVL_RULES


def test_overlap_fingerprints_distinguish_models():
    case_a, trace, reports, layers = fresh_cell(model="stack")
    case_b = OverlapCase("sra", 2, "mixed")
    reports[0].overlapped_time = 2.0 * reports[0].sequential_time
    f_stack = check_makespan(case_a, reports)[0]
    f_mixed = dataclasses.replace(f_stack, path=case_b.path)
    # same rule/scheme/world/message, different model axis: the
    # pseudo-path keeps the fingerprints apart
    assert f_stack.fingerprint != f_mixed.fingerprint
    assert f_stack.render().startswith("overlap[sra@world=2]:")


# -- OVL006: the consumer lint ------------------------------------------------

def test_ovl006_fixture_flags_exactly_the_sneaky_consumer():
    findings = lint_grad_consumers([FIXTURE])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "OVL006"
    assert "sneaky_update" in finding.message
    assert finding.snippet == "param.data -= lr * param.grad"
    assert finding.line > 0
    # snippet-carrying findings use the lint-style fingerprint
    assert ":" in finding.render()


def test_ovl006_real_consumer_path_is_clean():
    assert lint_grad_consumers() == []
    roots = consumer_default_roots()
    assert len(roots) == 3
    assert all(os.path.isfile(root) for root in roots)


def test_ovl006_barrier_call_suppresses():
    source = textwrap.dedent("""
        def ok(ddp, params, step):
            ddp.mark_consumed(step)
            return [p.grad for p in params]
    """)
    assert lint_grad_consumer_source(source, "<test>") == []


def test_ovl006_decorator_suppresses():
    source = textwrap.dedent("""
        @grad_consumer
        def ok(params):
            return [p.grad for p in params]
    """)
    assert lint_grad_consumer_source(source, "<test>") == []


def test_ovl006_exempt_names_suppress():
    source = textwrap.dedent("""
        def zero_grad(params):
            for p in params:
                if p.grad is not None:
                    p.grad = None
    """)
    assert lint_grad_consumer_source(source, "<test>") == []


def test_ovl006_nested_function_not_charged_to_parent():
    source = textwrap.dedent("""
        def outer(ddp, params, step):
            ddp.synchronize_overlapped(step=step)

            def inner():
                return [p.grad for p in params]

            return inner
    """)
    findings = lint_grad_consumer_source(source, "<test>")
    # the parent has a barrier; the nested reader is its own finding
    assert len(findings) == 1
    assert "'inner'" in findings[0].message


def test_ovl006_occurrence_numbering_is_stable():
    source = textwrap.dedent("""
        def a(params):
            return [p.grad for p in params]

        def b(params):
            return [p.grad for p in params]
    """)
    findings = lint_grad_consumer_source(source, "<test>")
    assert len(findings) == 2


# -- CLI wiring ---------------------------------------------------------------

def test_cli_overlap_flag_selects_only_overlap():
    args = build_parser().parse_args(["--overlap"])
    assert select_passes(args) == ("overlap",)


def test_cli_all_includes_overlap():
    args = build_parser().parse_args(["--all"])
    assert "overlap" in select_passes(args)


def test_cli_overlap_combines_with_liveness():
    args = build_parser().parse_args(["--liveness", "--overlap"])
    assert select_passes(args) == ("liveness", "overlap")
