"""The certifier's shared seams: the cell table and its invoker, the one
trace matcher, and the one rule table per pass.

The battery goldens and the three reference matchers below were
recorded at the commit *before* the batteries became selections over
``repro.collectives.scheme_cells`` and the graders moved onto
``match_messages`` — they pin "the refactor selects the same cells and
pairs the same messages", not what the current code happens to do.
"""

import ast
import importlib
import os
import re
from collections import Counter, deque
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.overlap import overlap_cases
from repro.analysis.registry import REGISTRY
from repro.analysis.schedule import default_cases, trace_collective
from repro.collectives import (PartialAllreduce, SchemeCell, allreduce,
                               default_quorum, node_placement, run_cell,
                               scheme_cell, scheme_cells)
from repro.collectives.trace import (TraceEvent, capture, emit_buffer_read,
                                     emit_recv, emit_send, match_messages,
                                     rank_scope)
from repro.compression import CompressionSpec, make_compressor
from repro.faults.cases import liveness_cases
from repro.faults.validate import _FAULT_CASES

# -- (i) the exact cells each battery runs ------------------------------------

_FLAT = ("allgather", "ps", "ring", "sra", "tree")

SCHEDULE_CELLS = (
    [("allgather", w, None, None) for w in (2, 3, 4, 5)]
    + [("hier", 4, (0, 0, 1, 1), None), ("hier", 6, (0, 0, 0, 1, 1, 1), None)]
    + [(s, w, None, None) for s in _FLAT[1:] for w in (2, 3, 4, 5)]
    + [("partial", 4, None, (0, 1, 2)), ("partial", 5, None, (0, 2, 4))])

FLT_CELLS = [("sra", 4, None, None), ("ring", 4, None, None),
             ("tree", 5, None, None), ("allgather", 3, None, None),
             ("ps", 4, None, None), ("partial", 4, None, (0, 1, 2))]

#: (scheme, world) -> (node_of, participants) of the liveness battery
LIVENESS_ROWS = {
    **{(s, w): (None, None) for s in _FLAT for w in (2, 3, 4)},
    ("hier", 2): ((0, 0), None), ("hier", 3): ((0, 0, 0), None),
    ("hier", 4): ((0, 0, 1, 1), None),
    ("partial", 2): (None, (0,)), ("partial", 3): (None, (0, 1)),
    ("partial", 4): (None, (0, 1, 2)),
}
LIVENESS_SCHEMES = ("allgather", "hier", "ps", "ring", "sra", "tree",
                    "partial")
LIVENESS_CAMPAIGNS = ("none", "crash-rejoin", "lossy-link", "straggler")

OVERLAP_SCHEMES = ("sra", "ring", "tree", "allgather", "ps", "hier",
                   "partial")


def _row(case):
    return case.scheme, case.world, case.node_of, case.participants


def test_schedule_and_race_battery_cells_are_the_recorded_24():
    assert len(SCHEDULE_CELLS) == 24
    assert [_row(case) for case in default_cases()] == SCHEDULE_CELLS


def test_fault_battery_cells_are_the_recorded_6():
    assert [_row(case) for case in _FAULT_CASES] == FLT_CELLS


def test_liveness_battery_cells_are_the_recorded_84():
    expected = [
        (scheme, world, *LIVENESS_ROWS[scheme, world], campaign,
         # the stock crash-rejoin campaign kills the last rank
         (world - 1,) if campaign == "crash-rejoin" else ())
        for scheme in LIVENESS_SCHEMES for world in (2, 3, 4)
        for campaign in LIVENESS_CAMPAIGNS]
    assert len(expected) == 84
    assert [(*_row(case), case.campaign, case.excluded)
            for case in liveness_cases()] == expected


def test_overlap_battery_cells_are_the_recorded_42():
    expected = [(scheme, world, model) for scheme in OVERLAP_SCHEMES
                for world in (2, 3, 4) for model in ("stack", "mixed")]
    assert len(expected) == 42
    cases = overlap_cases()
    assert [(c.scheme, c.world, c.model) for c in cases] == expected
    # hier at worlds 2 and 3 runs on single-member nodes, as it always
    # has: those are explicit rows, not the table's one-node fallback
    placement = {c.world: c.row.node_of for c in cases if c.scheme == "hier"}
    assert placement == {2: (0, 1), 3: (0, 0, 1), 4: (0, 0, 1, 1)}
    quorum = {c.world: c.row.participants for c in cases
              if c.scheme == "partial"}
    assert quorum == {2: (0,), 3: (0, 1), 4: (0, 1, 2)}


def test_table_defaults():
    assert [node_placement(w) for w in (1, 3, 4, 5, 6)] == [
        (0,), (0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1)]
    assert [default_quorum(w) for w in (1, 2, 4, 8)] == [
        (0,), (0,), (0, 1, 2), tuple(range(6))]
    cells = scheme_cells((4,))
    assert [c.scheme for c in cells] == list(LIVENESS_SCHEMES)
    assert all((c.node_of is not None) == (c.scheme == "hier")
               and (c.participants is not None) == (c.scheme == "partial")
               for c in cells)


def test_reloading_the_liveness_battery_keeps_84_cells():
    """The campaign axis is the fixed-world constant, not whatever
    ``CAMPAIGNS`` holds when ``faults.cases`` happens to be imported
    (``faults.elastic`` registers two more at its own import)."""
    import repro.faults.cases as cases
    from repro.faults import CAMPAIGNS

    assert len(CAMPAIGNS) > 3          # the elastic campaigns are registered
    reloaded = importlib.reload(cases)
    assert reloaded.LIVENESS_CAMPAIGNS == LIVENESS_CAMPAIGNS
    assert len(reloaded.liveness_cases()) == 84


# -- (ii) the one matcher equals the three it replaced ------------------------

def _schedule_reference(events):
    """SCH001/002/003 as ``schedule.verify_trace`` computed them."""
    sends = Counter(e.match_key() for e in events if e.kind == "send")
    recvs = Counter(e.match_key() for e in events if e.kind == "recv")
    available = Counter()
    causality_bad = 0
    for event in events:
        key = event.match_key()
        if event.kind == "send":
            available[key] += 1
        elif available[key] > 0:
            available[key] -= 1
        elif sends[key] >= recvs[key]:  # matched overall, wrong order
            causality_bad += 1
    return sends - recvs, recvs - sends, causality_bad


def _races_reference(timeline):
    """The message edges ``races._ancestor_sets`` built: recv -> sender."""
    unmatched_sends = {}
    edges = []
    for i, item in enumerate(timeline):
        if isinstance(item, TraceEvent):
            if item.kind == "send":
                unmatched_sends.setdefault(item.match_key(),
                                           deque()).append(i)
            else:
                queue = unmatched_sends.get(item.match_key())
                if queue:
                    edges.append((queue.popleft(), i))
    return edges


def _liveness_reference(events):
    """DLV002's (key, direction, count) rows as ``analyze_segment`` did."""
    sends = Counter(e.match_key() for e in events if e.kind == "send")
    recvs = Counter(e.match_key() for e in events if e.kind == "recv")
    rows = []
    for key in sorted(set(sends) | set(recvs)):
        if recvs[key] > sends[key]:
            rows.append((key, "recv", recvs[key] - sends[key]))
        elif sends[key] > recvs[key]:
            rows.append((key, "send", sends[key] - recvs[key]))
    return rows


#: one emitted item: (kind, a, b, step, tag, scopes entered around it)
_items = st.tuples(st.sampled_from(("send", "recv", "read")),
                   st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                   st.sampled_from(("x", "y")), st.integers(0, 2))
_SCOPES = ([2, 0, 1], [1, 2, 0])    # nested: both apply, innermost first


@given(items=st.lists(_items, max_size=40))
@settings(max_examples=300, deadline=None)
def test_match_messages_equals_the_three_replaced_matchers(items):
    scratch = np.zeros(4, dtype=np.float32)
    with capture() as trace:
        for kind, a, b, step, tag, depth in items:
            with ExitStack() as scopes:
                for mapping in _SCOPES[:depth]:
                    scopes.enter_context(rank_scope(mapping))
                if kind == "send":
                    emit_send(a, b, 8, step, tag)
                elif kind == "recv":
                    emit_recv(b, a, 8, step, tag)
                else:
                    emit_buffer_read(a, scratch, tag)

    match = match_messages(trace.events)
    orphan_sends, orphan_recvs, early = _schedule_reference(trace.events)
    assert match.orphan_sends == orphan_sends
    assert match.orphan_recvs == orphan_recvs
    assert match.early_recvs == early
    graded = ([(key, "recv", n) for key, n in match.orphan_recvs.items()]
              + [(key, "send", n) for key, n in match.orphan_sends.items()])
    assert sorted(graded) == _liveness_reference(trace.events)

    # on the timeline, positions index the interleaved record
    on_timeline = match_messages(trace.timeline)
    assert list(on_timeline.pairs) == _races_reference(trace.timeline)
    assert on_timeline.orphan_sends == orphan_sends
    # every pair is a send strictly before a recv with the same key
    for send, recv in match.pairs:
        assert send < recv
        assert trace.events[send].kind == "send"
        assert trace.events[recv].kind == "recv"
        assert (trace.events[send].match_key()
                == trace.events[recv].match_key())


# -- (iii) the one invoker ------------------------------------------------------

def _fake_ranks(world, seed=0):
    rng = np.random.default_rng(seed)
    compressor = make_compressor(
        CompressionSpec("qsgd", bits=4, bucket_size=32))
    buffers = [np.asarray(rng.normal(size=97), dtype=np.float32)
               for _ in range(world)]
    return buffers, compressor, rng


def _timeline(trace):
    return [(type(item).__name__, item.kind, getattr(item, "rank", None),
             getattr(item, "space", None), getattr(item, "buffer", None),
             item.tag) for item in trace.timeline]


def _same_run(a, b):
    (outs_a, stats_a, trace_a), (outs_b, stats_b, trace_b) = a, b
    assert all(np.array_equal(x, y) for x, y in zip(outs_a, outs_b))
    assert stats_a == stats_b
    assert trace_a.events == trace_b.events
    assert trace_a.phase_spans == trace_b.phase_spans
    assert _timeline(trace_a) == _timeline(trace_b)


def test_run_cell_with_a_persisted_reducer_equals_direct_reduce_calls():
    cell = scheme_cell("partial", 4)
    assert cell.participants == (0, 1, 2)

    def direct():
        buffers, compressor, rng = _fake_ranks(4)
        reducer = PartialAllreduce(4)
        with capture() as trace:
            reducer.reduce(buffers, [0, 1, 2], compressor, rng, key="k")
            outs, stats = reducer.reduce(buffers, [0, 1, 2, 3], compressor,
                                         rng, key="k")
        assert not reducer.has_carries()
        return outs, stats, trace

    def through_the_invoker():
        buffers, compressor, rng = _fake_ranks(4)
        reducer = PartialAllreduce(4)
        with capture() as trace:
            run_cell(cell, buffers, compressor, rng, key="k", reducer=reducer)
            outs, stats = run_cell(cell, buffers, compressor, rng, key="k",
                                   reducer=reducer, participants=range(4))
        assert not reducer.has_carries()   # the drain call saw the carries
        return outs, stats, trace

    _same_run(direct(), through_the_invoker())


def test_run_cell_on_a_hier_cell_equals_allreduce_with_its_placement():
    cell = scheme_cell("hier", 6)

    def run(fn):
        buffers, compressor, rng = _fake_ranks(6)
        with capture() as trace:
            outs, stats = fn(buffers, compressor, rng)
        return outs, stats, trace

    _same_run(
        run(lambda b, c, r: allreduce("hier", b, c, r, key="k",
                                      node_of=[0, 0, 0, 1, 1, 1])),
        run(lambda b, c, r: run_cell(cell, b, c, r, key="k")))
    # an override (a demoted phase's rebalanced nodes) wins over the row
    _same_run(
        run(lambda b, c, r: allreduce("hier", b, c, r, key="k",
                                      node_of=[0, 0, 1, 1, 1, 1])),
        run(lambda b, c, r: run_cell(cell, b, c, r, key="k",
                                     node_of=(0, 0, 1, 1, 1, 1))))


def test_run_cell_without_a_reducer_is_one_fresh_quorum_call():
    cell = SchemeCell("partial", 5, participants=(0, 2, 4))
    trace, (outs, stats) = trace_collective(
        lambda b, c, r, key: run_cell(cell, b, c, r, key=key), 5)
    assert stats.scheme == "partial" and len(outs) == 5
    late = {e.dst for e in trace.events if e.tag == "late"}
    assert late == {1, 3}


# -- (iv) one rule table per pass, read by code -------------------------------

#: every rule-bearing module: the eleven registry rows plus the FLT
#: battery, which rides on the contracts/races rows
RULE_TABLES = [row.rules for row in REGISTRY] + [
    "repro.faults.validate:FAULT_RULES"]

_RULE_ID = re.compile(r"[A-Z]{3,4}\d{3}")


def rule_ids_in_source(module):
    """Every string literal in ``module``'s source that is a rule id."""
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _RULE_ID.fullmatch(node.value)}


def documented_rule_ids(family):
    """Rule rows (``| SCD001 | ...``) of docs/analysis.md for a family."""
    docs = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "analysis.md")
    with open(docs, encoding="utf-8") as handle:
        return set(re.findall(rf"^\| ({family}\d{{3}}) +\|", handle.read(),
                              flags=re.M))


@pytest.mark.parametrize("pointer", RULE_TABLES)
def test_rule_table_agrees_with_code_and_docs(pointer):
    module_name, table_name = pointer.split(":")
    module = importlib.import_module(module_name)
    table = getattr(module, table_name)
    assert table and all(table.values())
    family = os.path.commonprefix(list(table)).rstrip("0123456789")

    # every id the module can emit is a key (foreign families, e.g. the
    # SCH ids FLT001 quotes, belong to their own module's table)
    emitted = {rule for rule in rule_ids_in_source(module)
               if rule.startswith(family)}
    assert emitted == set(table)
    # docs/analysis.md is the long-form copy: same rows
    assert documented_rule_ids(family) == set(table)
    # the module docstring carries the generated table, nothing by hand
    for rule, text in table.items():
        assert f"``{rule}``  {text}" in module.__doc__
    # exactly one table per module
    assert [name for name, value in vars(module).items()
            if name.endswith("RULES") and isinstance(value, dict)
            ] == [table_name]


def test_every_registry_row_points_at_a_table_with_its_family():
    families = [row.family for row in REGISTRY]
    assert families == ["REP", "SCH", "CON", "RACE", "BWP", "SHP", "HLT",
                        "DLV", "OVL", "SCD", "ELA"]
    assert all(row.rule_table for row in REGISTRY)


def test_cell_collector_refuses_a_rule_missing_from_the_table():
    from repro.analysis.findings import CellFindings
    from repro.analysis.sched import SCD_RULES

    out = CellFindings("sched", SCD_RULES, "packed-static", 3, "<sched:x>")
    out.emit("SCD001", "planted")
    assert [f.render() for f in out] == [
        "sched[packed-static@jobs=3]: SCD001 planted"]
    with pytest.raises(KeyError, match="SCD999"):
        out.emit("SCD999", "no such rule")
