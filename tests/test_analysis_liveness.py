"""Liveness certifier: every DLV rule fires on a fixture, the one fair
execution ends where every interleaving ends (checked against a
brute-force enumeration), and the full (scheme x world x campaign)
battery certifies clean."""

import functools
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explore import (
    Op,
    build_programs,
    fair_schedule,
    phase_segments,
)
from repro.analysis.liveness import (
    DLV_RULES,
    analyze_segment,
    analyze_trace_liveness,
    lint_blocking,
    lint_blocking_source,
    verify_liveness,
)
from repro.analysis.schedule import SchemeCase, trace_case
from repro.collectives.trace import (
    capture,
    emit_recv,
    emit_send,
    phase_scope,
)
from repro.faults.cases import (
    LIVENESS_CAMPAIGNS,
    liveness_cases,
    trace_liveness_case,
)

CASE_PATH = "<liveness:toy@world=2/none>"


def rules_of(findings):
    return {f.rule for f in findings}


def trace_of(body):
    with capture() as trace:
        body()
    return trace


# -- fixtures emitting raw schedule events -------------------------------------

def cyclic_deadlock():
    """Two ranks, each receiving before it sends: the classic cycle."""
    emit_recv(0, 1, 8, step=0, tag="x")   # rank 0 blocks on 1->0
    emit_recv(1, 0, 8, step=0, tag="y")   # rank 1 blocks on 0->1
    emit_send(0, 1, 8, step=0, tag="y")   # ...which rank 0 would send
    emit_send(1, 0, 8, step=0, tag="x")   # ...which rank 1 would send


def orphan_recv():
    emit_send(0, 1, 8, step=0, tag="ok")
    emit_recv(1, 0, 8, step=0, tag="ok")
    emit_recv(1, 0, 8, step=0, tag="missing")


def orphan_send():
    emit_send(0, 1, 8, step=0, tag="ok")
    emit_recv(1, 0, 8, step=0, tag="ok")
    emit_send(0, 1, 8, step=0, tag="unconsumed")


# -- DLV001: wait-for cycles ---------------------------------------------------

def test_dlv001_cyclic_deadlock_flagged():
    trace = trace_of(cyclic_deadlock)
    findings = analyze_segment("step", trace.events, CASE_PATH,
                               scheme="toy", world=2)
    assert rules_of(findings) == {"DLV001"}
    (finding,) = findings
    assert "0 -> 1 -> 0" in finding.message
    assert finding.source == "liveness"
    assert finding.path == CASE_PATH


def test_dlv001_through_full_trace_pipeline():
    with capture() as trace:
        with phase_scope("step"):
            # a matched exchange first: the cycle is reached after progress
            emit_send(0, 1, 8, step=0, tag="warmup")
            emit_recv(1, 0, 8, step=0, tag="warmup")
            cyclic_deadlock()
    findings = analyze_trace_liveness(trace, CASE_PATH, scheme="toy",
                                      world=2)
    # one execution decides every interleaving: the cycle is reported
    # once, by the wait-for analysis
    assert rules_of(findings) == {"DLV001"}
    (finding,) = findings
    assert "wait-for cycle 0 -> 1 -> 0" in finding.message
    assert "recv 1->0 step 0 (tag 'x'" in finding.message


def test_greedy_run_is_stuck_on_the_cycle():
    trace = trace_of(cyclic_deadlock)
    result = fair_schedule(build_programs(trace.events))
    assert not result.completed
    assert set(result.blocked) == {0, 1}
    assert all(op.kind == "recv" for op in result.blocked.values())
    # each stuck rank still holds the send its peer waits on
    assert [op.kind for op in result.remaining[0]] == ["recv", "send"]
    assert not result.residue


# -- DLV002: orphan endpoints --------------------------------------------------

def test_dlv002_orphan_recv_flagged():
    trace = trace_of(orphan_recv)
    findings = analyze_segment("step", trace.events, CASE_PATH)
    assert rules_of(findings) == {"DLV002"}
    (finding,) = findings
    assert "no matching send" in finding.message


def test_dlv002_orphan_send_flagged():
    trace = trace_of(orphan_send)
    findings = analyze_segment("step", trace.events, CASE_PATH)
    assert rules_of(findings) == {"DLV002"}
    (finding,) = findings
    assert "never received" in finding.message


def test_matched_pairs_are_clean():
    trace = trace_of(lambda: (emit_send(0, 1, 8, 0, "t"),
                              emit_recv(1, 0, 8, 0, "t")))
    assert analyze_segment("step", trace.events, CASE_PATH) == []


# -- DLV003: quorum-excluded ranks ---------------------------------------------

def test_dlv003_excluded_rank_traffic_flagged():
    def body():
        emit_send(0, 2, 8, step=0, tag="dead")
        emit_recv(2, 0, 8, step=0, tag="dead")

    trace = trace_of(body)
    findings = analyze_segment("demoted", trace.events, CASE_PATH,
                               scheme="toy", world=3, excluded=(2,))
    assert "DLV003" in rules_of(findings)
    assert all("[2]" in f.message for f in findings
               if f.rule == "DLV003")


def test_dlv003_not_applied_outside_excluded_phases():
    """A crashed rank participates legitimately before/after its crash:
    only the phases listed in excluded_by_phase see the rule."""
    with capture() as trace:
        with phase_scope("full"):
            emit_send(0, 2, 8, 0, "t")
            emit_recv(2, 0, 8, 0, "t")
        with phase_scope("demoted"):
            emit_send(0, 1, 8, 0, "t")
            emit_recv(1, 0, 8, 0, "t")
    findings = analyze_trace_liveness(
        trace, CASE_PATH, world=3, excluded_by_phase={"demoted": (2,)})
    assert "DLV003" not in rules_of(findings)


# -- one execution decides every interleaving ----------------------------------

@st.composite
def message_programs(draw):
    """Eager-send / blocking-recv programs: 2-3 ranks, at most 8 ops.

    Two tags and one step make duplicate match keys common; a send and
    a recv are drawn independently, so orphan endpoints are too.
    """
    world = draw(st.integers(2, 3))
    programs = {rank: [] for rank in range(world)}
    for _ in range(draw(st.integers(0, 8))):
        owner = draw(st.integers(0, world - 1))
        peer = draw(st.integers(0, world - 2))
        peer += peer >= owner                       # any rank but the owner
        kind = draw(st.sampled_from(("send", "recv")))
        src, dst = (owner, peer) if kind == "send" else (peer, owner)
        programs[owner].append(Op(kind, (src, dst, 0, 8,
                                         draw(st.sampled_from("ab")))))
    return {rank: tuple(ops) for rank, ops in programs.items()}


def every_terminal_state(programs):
    """``(remaining, residue)`` at the end of every maximal interleaving.

    The brute-force reference: a depth-first walk over every enabled
    operation of every rank, memoized on the (program counters,
    mailbox) state, so each state's set of reachable ends is computed
    once.  ``remaining`` lists each unfinished rank's unexecuted ops.
    """
    ranks = sorted(programs)

    @functools.lru_cache(maxsize=None)
    def ends(pcs, mailbox):
        box = dict(mailbox)
        out = set()
        for i, rank in enumerate(ranks):
            if pcs[i] == len(programs[rank]):
                continue
            op = programs[rank][pcs[i]]
            if op.kind == "recv" and not box.get(op.key):
                continue
            after = dict(box)
            after[op.key] = after.get(op.key, 0) + (
                1 if op.kind == "send" else -1)
            after = {key: n for key, n in after.items() if n}
            out |= ends(pcs[:i] + (pcs[i] + 1,) + pcs[i + 1:],
                        tuple(sorted(after.items())))
        if not out:                        # nothing enabled: maximal
            remaining = tuple((rank, programs[rank][pc:])
                              for rank, pc in zip(ranks, pcs)
                              if pc < len(programs[rank]))
            out = {(remaining, mailbox)}
        return frozenset(out)

    return ends(tuple(0 for _ in ranks), ())


@settings(max_examples=300, deadline=None)
@given(message_programs())
def test_the_fair_run_ends_where_every_interleaving_ends(programs):
    run = fair_schedule(programs)
    fair_end = (tuple(sorted(run.remaining.items())),
                tuple(sorted(run.residue.items())))
    ends = every_terminal_state(programs)
    stuck = {end for end in ends if end[0]}
    # some interleaving deadlocks exactly when the fair run is stuck
    assert bool(stuck) == (not run.completed)
    # every stuck maximal interleaving ends in the fair run's state
    assert stuck <= {fair_end}
    # every completing interleaving leaves the fair run's residue
    assert all(residue == fair_end[1]
               for remaining, residue in ends if not remaining)


# -- DLV005: bounded wait + carry drains ---------------------------------------

def test_fair_schedule_completes_within_bound_for_real_schemes():
    trace, _ = trace_case(SchemeCase("ring", 4))
    for label, events in phase_segments(trace):
        programs = build_programs(events)
        result = fair_schedule(programs)
        assert result.completed and not result.residue
        assert result.max_wait <= result.bound(4)
        assert analyze_segment(label, events, CASE_PATH, world=4) == []


def test_dlv005_convoy_wait_beyond_bound_flagged():
    """A serial relay across many ranks with *short* programs: the last
    hop's wait grows with the chain length, which no single program's
    length (and no small world size) can explain — the convoy shape the
    bound is designed to catch."""
    def relay(links=30):
        emit_send(0, 1, 8, 0, "chain0")
        for i in range(1, links):
            emit_recv(i, i - 1, 8, 0, f"chain{i - 1}")
            emit_send(i, i + 1, 8, 0, f"chain{i}")
        emit_recv(links, links - 1, 8, 0, f"chain{links - 1}")

    findings = analyze_segment("step", trace_of(relay).events, CASE_PATH,
                               world=2)
    assert rules_of(findings) == {"DLV005"}
    assert any("fair scheduler rounds" in f.message for f in findings)


def test_dlv005_undrained_carries_flagged():
    trace = trace_of(lambda: (emit_send(0, 1, 8, 0, "t"),
                              emit_recv(1, 0, 8, 0, "t")))
    findings = analyze_trace_liveness(trace, CASE_PATH, scheme="partial",
                                      world=2, undrained_carries=True)
    assert "DLV005" in rules_of(findings)
    assert any("stranded" in f.message for f in findings)


def test_partial_drain_phase_empties_carries():
    (case,) = [c for c in liveness_cases((3,))
               if c.scheme == "partial" and c.campaign == "none"]
    _, aux = trace_liveness_case(case)
    assert aux.undrained_carries is False
    assert "drain" in aux.phases


# -- DLV006: blocking-call AST pass --------------------------------------------

def _lint(src, path="src/repro/collectives/fake.py"):
    return lint_blocking_source(textwrap.dedent(src), path)


def test_dlv006_emit_without_deliver_chunk_flagged():
    findings = _lint("""
        def rogue_broadcast(wire, peers):
            for peer in peers:
                emit_send(0, peer, wire.nbytes, step=0, tag="b")
                emit_recv(peer, 0, wire.nbytes, step=0, tag="b")
    """)
    assert rules_of(findings) == {"DLV006"}
    (finding,) = findings
    assert "deliver_chunk" in finding.message
    assert finding.snippet.startswith("def rogue_broadcast")


def test_dlv006_emit_with_deliver_chunk_is_clean():
    findings = _lint("""
        def audited_broadcast(wire, stats, peers):
            for peer in peers:
                emit_send(0, peer, wire.nbytes, step=0, tag="b")
                deliver_chunk(wire, stats, 0, peer, step=0, tag="b")
                emit_recv(peer, 0, wire.nbytes, step=0, tag="b")
    """)
    assert findings == []


def test_dlv006_raw_blocking_primitives_flagged():
    findings = _lint("""
        import time

        def spin(lock, cond):
            time.sleep(0.1)
            lock.acquire()
            cond.wait_for(lambda: True)
    """)
    assert rules_of(findings) == {"DLV006"}
    assert len(findings) == 3
    assert all("bypasses" in f.message for f in findings)


def test_dlv006_exemptions():
    # the trace module defines the hooks; "deliver" functions and
    # emit_* helpers ARE the audited path
    assert _lint("""
        def emit_send(src, dst):
            emit_send(src, dst)
    """, path="src/repro/collectives/trace.py") == []
    assert _lint("""
        def deliver(self, wire):
            emit_send(0, 1, wire.nbytes, step=0, tag="d")
            emit_recv(1, 0, wire.nbytes, step=0, tag="d")
    """) == []
    assert _lint("""
        def emit_heartbeat(rank):
            emit_send(rank, 0, 1, step=0, tag="hb")
    """) == []


def test_dlv006_in_tree_surface_is_clean():
    assert lint_blocking() == []


# -- phase segmentation --------------------------------------------------------

def test_phase_segments_keep_outermost_spans_and_gaps():
    with capture() as trace:
        emit_send(0, 1, 8, 0, "pre")
        with phase_scope("outer"):
            emit_send(0, 1, 8, 0, "a")
            with phase_scope("inner"):
                emit_send(0, 1, 8, 0, "b")
        emit_send(0, 1, 8, 0, "post")
    segments = phase_segments(trace)
    labels = [label for label, _ in segments]
    assert labels == ["events[0:1]", "outer", "events[3:4]"]
    assert [len(events) for _, events in segments] == [1, 2, 1]


def test_phase_separation_prevents_cross_call_aliasing():
    """Two sequential calls reuse identical match keys; without phase
    barriers the second call's recv could consume the first call's
    send.  Segmented, each phase balances independently."""
    def one_call():
        emit_send(0, 1, 8, 0, "t")
        emit_recv(1, 0, 8, 0, "t")

    with capture() as trace:
        with phase_scope("call0"):
            one_call()
        with phase_scope("call1"):
            one_call()
    findings = analyze_trace_liveness(trace, CASE_PATH, world=2)
    assert findings == []
    assert len(phase_segments(trace)) == 2


# -- the battery ---------------------------------------------------------------

def test_battery_covers_every_scheme_world_campaign_cell():
    cases = liveness_cases()
    assert len(cases) == 7 * 3 * 4
    assert {c.scheme for c in cases} == {
        "allgather", "hier", "partial", "ps", "ring", "sra", "tree"}
    assert {c.world for c in cases} == {2, 3, 4}
    assert {c.campaign for c in cases} == set(LIVENESS_CAMPAIGNS)
    for case in cases:
        if case.campaign == "crash-rejoin":
            assert case.excluded, case.path


def test_crash_rejoin_cases_record_demoted_exclusions():
    case = [c for c in liveness_cases((4,))
            if c.scheme == "ring" and c.campaign == "crash-rejoin"][0]
    trace, aux = trace_liveness_case(case)
    assert aux.phase_excluded["demoted"] == case.excluded
    assert aux.phases == ["full", "demoted", "rejoined"]
    # the demoted phase genuinely avoids the dead rank
    assert analyze_trace_liveness(
        trace, case.path, scheme=case.scheme, world=case.world,
        excluded_by_phase=aux.phase_excluded) == []


def test_full_battery_certifies_deadlock_free():
    assert verify_liveness() == []


def test_dlv_rules_table_is_complete():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "liveness"]
    assert row.rule_table is DLV_RULES and row.family == "DLV"
    assert all(DLV_RULES[rule] for rule in DLV_RULES)
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py


def test_ops_describe_and_accessors():
    op = Op("send", (0, 1, 2, 8, "t"))
    assert op.src == 0 and op.dst == 1 and op.tag == "t"
    assert "0->1" in op.describe()
