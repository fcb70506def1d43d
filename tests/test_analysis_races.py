"""Race detector: every RACE rule fires on a fixture, message ordering
suppresses false positives, and all registered schemes are race-free."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.findings import CellFindings, sort_findings
from repro.analysis.races import (
    RACE_RULES,
    _ancestor_sets,
    analyze_callable,
    analyze_trace,
    verify_races,
)
from repro.analysis.schedule import SchemeCase, trace_case
from repro.collectives import (
    ReduceStats,
    accumulate_chunk,
    declare_buffer,
    store_chunk,
)
from repro.collectives.trace import (
    BufferAccess,
    ScheduleTrace,
    TraceEvent,
    capture,
    emit_buffer_read,
    emit_buffer_write,
    emit_recv,
    emit_send,
    emit_state_use,
)
from repro.compression import CompressionSpec


def rules_of(findings):
    return {f.rule for f in findings}


def stats_for(buffers, scheme="toy"):
    return ReduceStats(scheme, len(buffers), buffers[0].size)


# -- RACE001: unordered write/write on shared memory --------------------------

def shared_accumulator_allreduce(buffers, compressor, rng, key=""):
    """The textbook bug: every rank += into one buffer, no ordering."""
    total = np.zeros_like(buffers[0])
    for rank in range(len(buffers)):
        accumulate_chunk(total, buffers[rank], rank=rank, tag="shared-acc")
    outs = [total.copy() for _ in range(len(buffers))]
    return outs, stats_for(buffers)


def test_race001_shared_accumulator_flagged():
    findings = analyze_callable(shared_accumulator_allreduce, world=3,
                                scheme="toy")
    assert rules_of(findings) == {"RACE001"}
    # one finding per unordered rank pair: (0,1), (0,2), (1,2)
    assert len(findings) == 3
    for f in findings:
        assert f.source == "race"
        assert f.path == "<race:toy@world=3>"
        assert "no happens-before ordering" in f.message


def test_race001_message_chain_makes_it_clean():
    def token_ring(buffers, compressor, rng, key=""):
        # same shared buffer, but a token message orders every update
        total = np.zeros_like(buffers[0])
        world = len(buffers)
        for rank in range(world):
            if rank > 0:
                emit_recv(rank, rank - 1, 8, step=rank - 1, tag="token")
            accumulate_chunk(total, buffers[rank], rank=rank, tag="acc")
            if rank + 1 < world:
                emit_send(rank, rank + 1, 8, step=rank, tag="token")
        return [total.copy() for _ in range(world)], stats_for(buffers)

    assert analyze_callable(token_ring, world=4, scheme="ok") == []


# -- RACE002: unordered read/write --------------------------------------------

def read_write_allreduce(buffers, compressor, rng, key=""):
    """Rank 1 overwrites a buffer rank 0 is concurrently reading."""
    scratch = buffers[0].copy()
    emit_buffer_read(0, scratch, tag="r0-read")
    store_chunk(scratch, buffers[1], rank=1, tag="r1-write")
    return [b.copy() for b in buffers], stats_for(buffers)


def test_race002_read_write_flagged():
    findings = analyze_callable(read_write_allreduce, world=2, scheme="rw")
    assert rules_of(findings) == {"RACE002"}


def test_race002_send_recv_ordering_suppresses():
    def handoff(buffers, compressor, rng, key=""):
        scratch = buffers[0].copy()
        emit_buffer_read(0, scratch, tag="r0-read")
        emit_send(0, 1, scratch.nbytes, step=0, tag="handoff")
        emit_recv(1, 0, scratch.nbytes, step=0, tag="handoff")
        store_chunk(scratch, buffers[1], rank=1, tag="r1-write")
        return [b.copy() for b in buffers], stats_for(buffers)

    assert analyze_callable(handoff, world=2, scheme="ok") == []


# -- RACE003: keyed state shared across ranks ---------------------------------

def shared_residual_allreduce(buffers, compressor, rng, key=""):
    for rank in range(len(buffers)):
        emit_state_use(rank, ("residual", key), tag="ef")
    return [b.copy() for b in buffers], stats_for(buffers)


def test_race003_shared_state_key_flagged():
    findings = analyze_callable(shared_residual_allreduce, world=2,
                                scheme="state")
    assert rules_of(findings) == {"RACE003"}
    assert any("state key" in f.message for f in findings)


def test_race003_per_rank_keys_clean():
    def per_rank_state(buffers, compressor, rng, key=""):
        for rank in range(len(buffers)):
            emit_state_use(rank, ("residual", key, rank), tag="ef")
        return [b.copy() for b in buffers], stats_for(buffers)

    assert analyze_callable(per_rank_state, world=3, scheme="ok") == []


# -- RACE004: declared rank-local buffers overlap ------------------------------

def test_race004_overlapping_declarations_flagged():
    def aliased_inputs(buffers, compressor, rng, key=""):
        n = buffers[0].size
        big = np.zeros(2 * n, dtype=np.float32)
        declare_buffer(0, big[: n + 4], name="rank0/input")
        declare_buffer(1, big[n:], name="rank1/input")
        return [b.copy() for b in buffers], stats_for(buffers)

    findings = analyze_callable(aliased_inputs, world=2, scheme="alias")
    assert rules_of(findings) == {"RACE004"}
    assert "16 bytes" in findings[0].message  # 4 fp32 elements overlap


def test_race004_disjoint_declarations_clean():
    def disjoint_inputs(buffers, compressor, rng, key=""):
        n = buffers[0].size
        big = np.zeros(2 * n, dtype=np.float32)
        declare_buffer(0, big[:n], name="rank0/input")
        declare_buffer(1, big[n:], name="rank1/input")
        return [b.copy() for b in buffers], stats_for(buffers)

    assert analyze_callable(disjoint_inputs, world=2, scheme="ok") == []


def test_race004_same_rank_overlap_allowed():
    def same_rank_views(buffers, compressor, rng, key=""):
        declare_buffer(0, buffers[0], name="rank0/full")
        declare_buffer(0, buffers[0][:4], name="rank0/head")
        return [b.copy() for b in buffers], stats_for(buffers)

    assert analyze_callable(same_rank_views, world=2, scheme="ok") == []


# -- negative control: deliberately injected aliasing bug ----------------------

def test_injected_aliasing_bug_in_toy_reduction_caught():
    """A plausible-looking toy scheme with a buried aliasing bug.

    Rank 0 "gathers" everyone's contribution into slices of one arena,
    but an off-by-one in the slice arithmetic makes rank 1's slice
    overlap rank 2's, and both write unordered: exactly the class of
    bug the detector exists for.  The numeric output of the simulated
    run is still deterministic — no ordinary test would catch it.
    """

    def buggy_gather_allreduce(buffers, compressor, rng, key=""):
        world = len(buffers)
        n = buffers[0].size
        arena = np.zeros(world * n, dtype=np.float32)
        for rank in range(world):
            start = rank * n - (1 if rank == 2 else 0)  # the bug
            view = arena[start:start + n]
            store_chunk(view, buffers[rank], rank=rank, tag=f"gather/{rank}")
        total = sum(arena[r * n:(r + 1) * n] for r in range(world))
        return [total.copy() for _ in range(world)], stats_for(buffers)

    findings = analyze_callable(buggy_gather_allreduce, world=3,
                                scheme="buggy-gather")
    assert rules_of(findings) == {"RACE001"}
    assert len(findings) == 1  # exactly the ranks the off-by-one aliases
    assert "rank 1" in findings[0].message
    assert "rank 2" in findings[0].message


# -- alias-first pairing equals the all-pairs definition -----------------------

def all_pairs_reference(trace, scheme, world):
    """The detector by definition: test every pair of buffer accesses."""
    out = CellFindings("race", RACE_RULES, scheme, world)
    anc = _ancestor_sets(trace.timeline)
    nodes = [(i, item) for i, item in enumerate(trace.timeline)
             if isinstance(item, BufferAccess)]
    races = Counter()
    for pos, (i, a) in enumerate(nodes):
        for j, b in nodes[pos + 1:]:
            if a.rank == b.rank or not (a.is_write or b.is_write):
                continue
            if not a.aliases(b) or (anc[j] >> i) & 1 or (anc[i] >> j) & 1:
                continue
            rule = ("RACE003" if a.space == "state" else
                    "RACE001" if a.is_write and b.is_write else "RACE002")
            races[rule, a.kind, b.kind, a.rank, b.rank, a.buffer,
                  b.buffer] += 1
    for (rule, kind_a, kind_b, rank_a, rank_b, buf_a, buf_b), count \
            in sorted(races.items()):
        where = (f"state key {buf_a}" if rule == "RACE003"
                 else f"aliased memory ({buf_a!r} / {buf_b!r})")
        out.emit(rule, f"rank {rank_a} {kind_a} and rank {rank_b} {kind_b} "
                       f"on {where} with no happens-before ordering "
                       f"({count} occurrence(s))")
    return sort_findings(out)


@st.composite
def random_timelines(draw):
    """2-4 ranks; mem spans fresh, equal, nested, adjacent or empty;
    repeated state labels; sends each matched by a later recv."""
    world = draw(st.integers(2, 4))
    rank = st.integers(0, world - 1)
    trace = ScheduleTrace()
    spans = [(0, 8)]
    in_flight = []
    for step in range(draw(st.integers(0, 30))):
        op = draw(st.sampled_from(["mem", "mem", "state", "send", "recv"]))
        if op == "mem":
            start, end = draw(st.sampled_from(spans))
            shape = draw(st.sampled_from(
                ["fresh", "equal", "nested", "adjacent", "empty"]))
            if shape == "fresh":
                start = draw(st.integers(0, 24))
                end = start + draw(st.integers(1, 8))
            elif shape == "nested" and end - start > 1:
                start, end = start + 1, end - 1
            elif shape == "adjacent":
                start, end = end, end + draw(st.integers(1, 4))
            elif shape == "empty":
                end = start = draw(st.integers(start, end))
            spans.append((start, end))
            trace.record_access(BufferAccess(
                draw(st.sampled_from(["read", "write", "update"])),
                draw(rank), "mem", f"buf{start}", start, end, "t"))
        elif op == "state":
            trace.record_access(BufferAccess(
                draw(st.sampled_from(["read", "update"])), draw(rank),
                "state", draw(st.sampled_from(["k0", "k1", "k2"])), 0, 0,
                "t"))
        elif op == "send":
            src, dst = draw(rank), draw(rank)
            message = TraceEvent("send", step, src, dst, 8, "m")
            trace.record(message)
            in_flight.append(message)
        elif in_flight:
            sent = in_flight.pop(draw(st.integers(0, len(in_flight) - 1)))
            trace.record(TraceEvent("recv", sent.step, sent.src, sent.dst,
                                    8, "m"))
    return trace, world


@given(random_timelines())
@settings(max_examples=150, deadline=None)
def test_alias_first_pairing_matches_all_pairs(case):
    trace, world = case
    assert analyze_trace(trace, "fuzz", world) == \
        all_pairs_reference(trace, "fuzz", world)


# -- registered schemes are race-free ------------------------------------------

def test_all_registered_schemes_race_free():
    assert verify_races() == []


@pytest.mark.parametrize("scheme,world", [("sra", 4), ("ring", 4),
                                          ("tree", 5), ("ps", 3),
                                          ("allgather", 3)])
def test_scheme_timeline_has_accesses(scheme, world):
    trace, _ = trace_case(SchemeCase(scheme, world))
    assert trace.accesses, "instrumentation should record buffer accesses"
    assert trace.declared, "inputs should be declared rank-local"
    assert analyze_trace(trace, scheme, world) == []


def test_stateful_compressor_on_real_scheme_clean():
    trace, _ = trace_case(SchemeCase("sra", 4),
                          spec=CompressionSpec("powersgd", rank=4))
    state_accesses = [a for a in trace.accesses if a.space == "state"]
    assert state_accesses, "powersgd warm start should appear as state use"
    assert analyze_trace(trace, "sra", 4) == []


def test_race_rules_table_complete():
    from repro.analysis.registry import REGISTRY

    (row,) = [r for r in REGISTRY if r.name == "races"]
    assert row.rule_table is RACE_RULES and row.family == "RACE"
    # key completeness (code literals, docs rows) is the one agreement
    # test's job: tests/test_analysis_cells.py


def test_capture_isolated_per_trace():
    with capture() as first:
        emit_buffer_write(0, np.zeros(4, dtype=np.float32), tag="a")
    with capture() as second:
        pass
    assert len(first.accesses) == 1
    assert second.accesses == []


# -- rank_scope composition (the trace hooks behind every scheme trace) --------

def test_nested_rank_scopes_compose_innermost_first():
    """hier nests per-node SRA inside the global call; a demoted
    crash-rejoin schedule nests a quorum scope inside the survivor
    scope — three levels deep the translation must still land on the
    correct global rank."""
    from repro.collectives.trace import rank_scope, translate_rank

    with rank_scope([4, 5, 6, 7]):           # survivors -> global
        with rank_scope([2, 0, 3]):          # quorum -> survivor-local
            assert translate_rank(0) == 6    # 0 -> 2 -> 6
            assert translate_rank(1) == 4    # 1 -> 0 -> 4
            with rank_scope([1]):            # leader -> quorum-local
                assert translate_rank(0) == 4
        assert translate_rank(3) == 7


def test_rank_scope_events_translate_through_all_levels():
    from repro.collectives.trace import rank_scope

    with capture() as trace:
        with rank_scope([3, 1]):
            with rank_scope([1, 0]):
                emit_send(0, 1, 8, step=0, tag="nested")
                emit_recv(1, 0, 8, step=0, tag="nested")
    (send, recv) = trace.events
    assert (send.src, send.dst) == (1, 3)
    assert (recv.src, recv.dst) == (1, 3)


def test_negative_rank_does_not_wrap_through_python_indexing():
    from repro.collectives.trace import rank_scope, translate_rank

    with rank_scope([2, 3]):
        with pytest.raises(IndexError, match="out of range"):
            translate_rank(-1)


def test_out_of_range_rank_names_the_offending_scope():
    from repro.collectives.trace import rank_scope, translate_rank

    with rank_scope([0, 1, 2, 3]):
        with rank_scope([1, 2]):
            with pytest.raises(IndexError, match=r"depth 1 .*\(1, 2\)"):
                translate_rank(2)
    # out of range at the *outer* level: inner map emits a legal local
    # rank whose image the outer scope cannot hold
    with rank_scope([1]):
        with rank_scope([0, 1]):
            with pytest.raises(IndexError, match="depth 2"):
                translate_rank(1)
