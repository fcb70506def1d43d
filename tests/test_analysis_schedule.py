"""Tests for the collective-schedule verifier."""

import numpy as np
import pytest

from repro.analysis import (SchemeCase, default_cases,
                            expected_recompression_bound, trace_case,
                            verify_callable, verify_schedules, verify_trace)
from repro.analysis.schedule import verify_case
from repro.collectives import (ALGORITHMS, EXPLICIT_CELLS, SINGLE_MEMBER_CELLS,
                               scheme_cells)
from repro.collectives.base import ReduceStats, check_buffers
from repro.collectives.trace import capture, emit_recv, emit_send


def test_every_registered_scheme_is_covered_by_default_cases():
    covered = {case.scheme for case in default_cases()}
    assert set(ALGORITHMS) <= covered
    assert "partial" in covered


def test_all_registered_schemes_verify_clean():
    findings = verify_schedules()
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("case", default_cases(),
                         ids=lambda c: f"{c.scheme}-w{c.world}")
def test_trace_pairs_and_conserves_bytes(case):
    trace, stats = trace_case(case)
    assert len(trace.sends) == len(trace.recvs)
    assert trace.send_bytes() == stats.wire_bytes
    assert verify_trace(trace, stats, case) == []


@pytest.mark.parametrize(
    "case", scheme_cells((1, 2, 3, 4, 5)) + list(EXPLICIT_CELLS)
    + list(SINGLE_MEMBER_CELLS.values()),
    ids=lambda c: f"{c.scheme}-w{c.world}"
    f"{'-n' + ''.join(map(str, c.node_of)) if c.node_of else ''}")
def test_degenerate_cells_verify_clean_too(case):
    """Bytes are booked per send, so SCH001-SCH007 hold outside the
    default grid as well: a lone rank, a one-rank quorum, one-GPU nodes
    (nine of these rows counted a payload nobody receives — SCH005)."""
    findings = verify_case(case)
    assert findings == [], [f.render() for f in findings]


def _asymmetric_allreduce(buffers, compressor, rng, key=""):
    """Toy broken scheme: rank 0 gathers but never sends results back.

    Every worker pushes its gradient to rank 0, and every worker then
    *waits* for a reply that is never transmitted — the classic
    asymmetric schedule that hangs a real collective.
    """
    numel = check_buffers(buffers)
    world = len(buffers)
    stats = ReduceStats("asym", world, numel)
    total = buffers[0].astype(np.float32).ravel().copy()
    for rank in range(1, world):
        wire = compressor.compress(buffers[rank].ravel(), rng,
                                   key=f"{key}/{rank}")
        stats.record_send(wire.nbytes)
        emit_send(rank, 0, wire.nbytes, step=0, tag=f"push/{rank}")
        total += compressor.decompress(wire)
        emit_recv(0, rank, wire.nbytes, step=0, tag=f"push/{rank}")
    # BUG: workers expect a broadcast that rank 0 never performs
    reply = compressor.compress(total, rng, key=f"{key}/reply")
    for rank in range(1, world):
        emit_recv(rank, 0, reply.nbytes, step=1, tag="reply")
    result = compressor.decompress(reply)
    shaped = result.reshape(buffers[0].shape)
    return [shaped.copy() for _ in range(world)], stats


def test_asymmetric_toy_scheme_is_rejected():
    findings = verify_callable(_asymmetric_allreduce, world=4, scheme="asym")
    rules = {f.rule for f in findings}
    assert "SCH002" in rules  # recv with no matching send -> deadlock
    assert all(f.source == "schedule" and f.scheme == "asym" for f in findings)


def test_orphan_send_is_rejected():
    def leaky(buffers, compressor, rng, key=""):
        outs, stats = ALGORITHMS["sra"](buffers, compressor, rng, key=key)
        emit_send(0, 1, 64, step=9, tag="extra")  # transmitted, never consumed
        stats.record_send(64)
        return outs, stats

    findings = verify_callable(leaky, world=3, scheme="leaky")
    assert {f.rule for f in findings} == {"SCH001"}


def test_wire_conservation_mismatch_is_flagged():
    case = SchemeCase("sra", 4)
    trace, stats = trace_case(case)
    stats.wire_bytes += 7  # accounting drifts from the actual schedule
    findings = verify_trace(trace, stats, case)
    assert [f.rule for f in findings] == ["SCH005"]


def test_recompression_bound_violation_is_flagged():
    case = SchemeCase("sra", 4)
    trace, stats = trace_case(case)
    stats.max_recompressions = 99
    findings = verify_trace(trace, stats, case)
    assert [f.rule for f in findings] == ["SCH006"]


def test_self_message_is_flagged():
    def selfie(buffers, compressor, rng, key=""):
        outs, stats = ALGORITHMS["sra"](buffers, compressor, rng, key=key)
        emit_send(1, 1, 8, step=9, tag="self")
        emit_recv(1, 1, 8, step=9, tag="self")
        stats.record_send(8)
        return outs, stats

    findings = verify_callable(selfie, world=3, scheme="selfie")
    assert {f.rule for f in findings} == {"SCH004"}


def test_recv_before_send_breaks_causality():
    case = SchemeCase("causal", 2)
    stats = ReduceStats("causal", 2, 1, wire_bytes=8)
    with capture() as trace:
        emit_recv(1, 0, 8, step=0, tag="t")  # consumed before transmission
        emit_send(0, 1, 8, step=0, tag="t")
    findings = verify_trace(trace, stats, case)
    assert [f.rule for f in findings] == ["SCH003"]


def test_expected_bounds_match_scheme_analysis():
    assert expected_recompression_bound("sra", 8) == 2
    assert expected_recompression_bound("allgather", 8) == 1
    assert expected_recompression_bound("ring", 8) == 8
    assert expected_recompression_bound("tree", 8) == 4
    assert expected_recompression_bound("hier", 8) == 5
    assert expected_recompression_bound("partial", 8) == 3


def test_tracing_is_inert_outside_capture():
    rng = np.random.default_rng(0)
    from repro.compression import CompressionSpec, make_compressor
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=32))
    bufs = [np.ones(17, dtype=np.float32) for _ in range(3)]
    with capture() as trace:
        ALGORITHMS["sra"](bufs, comp, rng, key="a")
    n_inside = len(trace.events)
    ALGORITHMS["sra"](bufs, comp, rng, key="b")  # no active trace
    assert len(trace.events) == n_inside
    assert n_inside > 0
