"""Data-path tests for the compression-aware collectives."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (CELL_SCHEMES, SchemeCell, allreduce,
                               chunk_bounds, run_cell, split_chunks)
from repro.collectives.trace import capture, match_messages
from repro.compression import CompressionSpec, make_compressor
from repro.faults import (FaultPlan, PlanRuntime, inject_data_path,
                          message_loss, payload_corruption)

SCHEMES = ["sra", "ring", "tree", "allgather", "ps"]


def make_buffers(world, numel, seed=0):
    return [np.random.default_rng(seed + i).normal(size=numel)
            .astype(np.float32) for i in range(world)]


# -- chunking ------------------------------------------------------------------

def test_chunk_bounds_cover_everything():
    bounds = chunk_bounds(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]


@given(numel=st.integers(0, 1000), n=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_chunk_bounds_partition_property(numel, n):
    bounds = chunk_bounds(numel, n)
    assert len(bounds) == n
    assert bounds[0][0] == 0 and bounds[-1][1] == numel
    for (a1, b1), (a2, b2) in zip(bounds, bounds[1:]):
        assert b1 == a2
        assert 0 <= (b1 - a1) - (b2 - a2) <= 1 or (b1 - a1) >= (b2 - a2) - 1


def test_split_chunks_are_views():
    x = np.arange(10, dtype=np.float32)
    chunks = split_chunks(x, 3)
    chunks[0][0] = 99.0
    assert x[0] == 99.0


def test_chunk_bounds_validation():
    with pytest.raises(ValueError):
        chunk_bounds(10, 0)


# -- dense correctness ------------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("world", [1, 2, 3, 5, 8])
def test_dense_allreduce_exact(scheme, world):
    bufs = make_buffers(world, 257)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    outs, stats = allreduce(scheme, bufs, make_compressor(CompressionSpec()),
                            np.random.default_rng(0))
    for out in outs:
        np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)
    assert stats.world_size == world


@pytest.mark.parametrize("scheme", SCHEMES)
def test_inputs_not_mutated(scheme):
    bufs = make_buffers(4, 64)
    originals = [b.copy() for b in bufs]
    allreduce(scheme, bufs, make_compressor(CompressionSpec()),
              np.random.default_rng(0))
    for buf, orig in zip(bufs, originals):
        np.testing.assert_array_equal(buf, orig)


def test_mismatched_sizes_rejected():
    bufs = [np.zeros(10, dtype=np.float32), np.zeros(11, dtype=np.float32)]
    with pytest.raises(ValueError):
        allreduce("sra", bufs, make_compressor(CompressionSpec()),
                  np.random.default_rng(0))


def test_unknown_scheme_rejected():
    with pytest.raises(KeyError):
        allreduce("butterfly", make_buffers(2, 8),
                  make_compressor(CompressionSpec()),
                  np.random.default_rng(0))


# -- compressed behaviour -----------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_ranks_receive_identical_results(scheme):
    """Replicas must not diverge: every rank decodes identical payloads."""
    bufs = make_buffers(8, 500)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=64))
    outs, _ = allreduce(scheme, bufs, comp, np.random.default_rng(1))
    for out in outs[1:]:
        np.testing.assert_array_equal(outs[0], out)


def test_shapes_preserved_2d():
    bufs = [b.reshape(20, 25) for b in make_buffers(4, 500)]
    outs, _ = allreduce("sra", bufs,
                        make_compressor(CompressionSpec("qsgd", bits=8,
                                                        bucket_size=128)),
                        np.random.default_rng(2))
    assert all(o.shape == (20, 25) for o in outs)


def _scheme_error(scheme, trials=12, world=8, numel=1024):
    errors = []
    for trial in range(trials):
        bufs = make_buffers(world, numel, seed=trial * 100)
        exact = np.sum(bufs, axis=0, dtype=np.float64)
        comp = make_compressor(CompressionSpec("qsgd", bits=4,
                                               bucket_size=128))
        outs, _ = allreduce(scheme, bufs, comp,
                            np.random.default_rng(trial))
        errors.append(np.linalg.norm(outs[0] - exact)
                      / np.linalg.norm(exact))
    return float(np.mean(errors))


def test_error_ordering_matches_paper():
    """Section 3 + Figure 10 rationale: SRA has lower compression error
    than Ring (repeated re-compression), and Allgather (single round of
    quantization) is the error floor."""
    err = {s: _scheme_error(s) for s in ["sra", "ring", "tree", "allgather"]}
    assert err["allgather"] < err["sra"]
    assert err["sra"] < err["ring"]
    assert err["sra"] <= err["tree"] * 1.05  # tree ~ between sra and ring


def test_recompression_counts():
    bufs = make_buffers(8, 256)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=64))
    rng = np.random.default_rng(0)
    _, sra = allreduce("sra", bufs, comp, rng)
    _, ring = allreduce("ring", bufs, comp, rng)
    _, tree = allreduce("tree", bufs, comp, rng)
    _, ag = allreduce("allgather", bufs, comp, rng)
    assert sra.max_recompressions == 2
    assert ring.max_recompressions == 8
    assert tree.max_recompressions == 4   # log2(8) + broadcast
    assert ag.max_recompressions == 1


def test_allgather_wire_cost_scales_with_world():
    """GRACE's weakness: allgather moves ~N compressed gradients."""
    comp_spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    bufs = make_buffers(8, 4096)
    rng = np.random.default_rng(0)
    _, sra = allreduce("sra", bufs, make_compressor(comp_spec), rng)
    _, ag = allreduce("allgather", bufs, make_compressor(comp_spec), rng)
    assert ag.wire_bytes > 3 * sra.wire_bytes


def test_single_rank_degenerate():
    bufs = make_buffers(1, 100)
    outs, stats = allreduce("ring", bufs,
                            make_compressor(CompressionSpec()),
                            np.random.default_rng(0))
    np.testing.assert_allclose(outs[0], bufs[0])


@given(world=st.integers(2, 6), numel=st.integers(2, 300))
@settings(max_examples=25, deadline=None)
def test_sra_dense_exact_property(world, numel):
    bufs = make_buffers(world, numel, seed=numel)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    outs, _ = allreduce("sra", bufs, make_compressor(CompressionSpec()),
                        np.random.default_rng(0))
    np.testing.assert_allclose(outs[0], exact, rtol=1e-4, atol=1e-4)


# -- hierarchical -------------------------------------------------------------------

def test_hierarchical_dense_exact():
    bufs = make_buffers(8, 333)
    exact = np.sum(bufs, axis=0, dtype=np.float64)
    outs, stats = allreduce("hier", bufs, make_compressor(CompressionSpec()),
                            np.random.default_rng(0),
                            node_of=[0, 0, 0, 0, 1, 1, 1, 1])
    for out in outs:
        np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)


def test_hierarchical_identical_across_nodes():
    bufs = make_buffers(8, 512)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=64))
    outs, _ = allreduce("hier", bufs, comp, np.random.default_rng(3),
                        node_of=[0, 0, 1, 1, 2, 2, 3, 3])
    for out in outs[1:]:
        np.testing.assert_array_equal(outs[0], out)


def test_hierarchical_single_node_falls_back_to_sra():
    bufs = make_buffers(4, 128)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=64))
    outs, stats = allreduce("hier", bufs, comp, np.random.default_rng(0),
                            node_of=[0, 0, 0, 0])
    assert stats.scheme == "sra"


def test_hierarchical_rejects_bad_node_map():
    bufs = make_buffers(4, 64)
    with pytest.raises(ValueError):
        allreduce("hier", bufs, make_compressor(CompressionSpec()),
                  np.random.default_rng(0), node_of=[0, 1])


# -- wire conservation, by construction ------------------------------------------

@st.composite
def random_cells(draw):
    """Any scheme, worlds 1-6, any node placement / non-empty quorum."""
    scheme = draw(st.sampled_from(CELL_SCHEMES))
    world = draw(st.integers(1, 6))
    node_of = participants = None
    if scheme == "hier":
        node_of = tuple(draw(st.lists(st.integers(0, 2), min_size=world,
                                      max_size=world)))
    if scheme == "partial":
        participants = tuple(draw(st.sets(st.integers(0, world - 1),
                                          min_size=1)))
    return SchemeCell(scheme, world, node_of, participants)


@given(cell=random_cells(), numel=st.integers(1, 200),
       lossy=st.booleans(), seed=st.integers(0, 50))
@settings(max_examples=150, deadline=None)
def test_stats_book_every_traced_send_property(cell, numel, lossy, seed):
    """Bytes are booked where they are sent: on any cell, degenerate or
    not, with or without a fault channel, ``wire_bytes`` is the traced
    send bytes, every send lands, and ``retries`` counts the
    retransmitted sends."""
    bufs = make_buffers(cell.world, numel, seed=seed)
    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=32))
    runtime = PlanRuntime(FaultPlan("prop", cell.world, seed, (
        message_loss(0, None, probability=0.2),
        payload_corruption(0, None, probability=0.1))))
    channel = inject_data_path(runtime) if lossy else nullcontext()
    with capture() as trace, channel:
        _, stats = run_cell(cell, bufs, comp, np.random.default_rng(seed))
    match = match_messages(trace.events)
    assert trace.send_bytes() == stats.wire_bytes
    assert len(match.pairs) == len(trace.sends) == len(trace.recvs)
    assert not match.orphan_sends and not match.early_recvs
    retried = [e for e in trace.sends if "#retry" in e.tag]
    assert stats.retries == len(retried) == runtime.counters.retries
    assert stats.retransmit_bytes == sum(e.nbytes for e in retried)
