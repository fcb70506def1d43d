"""Tests for the timed collective schedules."""

import pytest

from collections import Counter

import numpy as np

from repro.cluster import get_machine, make_cluster, Network
from repro.collectives import (EXPLICIT_CELLS, SINGLE_MEMBER_CELLS, run_cell,
                               scheme_cells, time_allreduce,
                               time_partial_allreduce)
from repro.collectives.schedules import (FLAT_SCHEDULES, Schedule, Stage,
                                         hier_schedule)
from repro.collectives.trace import capture
from repro.compression import CompressionSpec, make_compressor

DENSE = CompressionSpec("none")
Q4 = CompressionSpec("qsgd", bits=4, bucket_size=128)


def fresh(machine="rtx3090-8x", backend="shm"):
    return get_machine(machine).network(backend)


def test_end_times_after_ready():
    net = fresh()
    timing = time_allreduce(net, list(range(8)), 1 << 20, DENSE, "sra",
                            ready=0.5)
    assert all(t > 0.5 for t in timing.end_times)
    assert len(timing.end_times) == 8


def test_compression_speeds_up_commodity_allreduce():
    for scheme in ["sra", "ring", "tree"]:
        dense = time_allreduce(fresh(), list(range(8)), 50_000_000, DENSE,
                               scheme).end
        compressed = time_allreduce(fresh(), list(range(8)), 50_000_000, Q4,
                                    scheme).end
        assert compressed < dense / 2, scheme


def test_sra_beats_ring_and_tree_on_commodity_dense():
    """Figure 10: SRA is the best reduction scheme on the 8x3090 box."""
    numel = 187_500_000  # Transformer-XL
    times = {s: time_allreduce(fresh(), list(range(8)), numel, DENSE, s).end
             for s in ["sra", "ring", "tree", "allgather"]}
    assert times["sra"] < times["ring"]
    assert times["sra"] < times["tree"]
    assert times["sra"] < times["allgather"]


def test_quantized_sra_close_to_best_on_commodity():
    numel = 187_500_000
    times = {s: time_allreduce(fresh(), list(range(8)), numel, Q4, s,
                               chunk_streams=4).end
             for s in ["sra", "ring", "tree", "allgather"]}
    assert times["sra"] <= min(times.values()) * 1.1
    assert times["tree"] > times["sra"]
    assert times["allgather"] > times["sra"]


def test_ring_is_bandwidth_optimal_on_nvlink():
    """NCCL's choice: on the DGX ring fabric, ring-allreduce wins."""
    net_kwargs = dict(machine="dgx1", backend="nccl")
    numel = 25_000_000
    ring = time_allreduce(fresh(**net_kwargs), list(range(8)), numel, DENSE,
                          "ring").end
    tree = time_allreduce(fresh(**net_kwargs), list(range(8)), numel, DENSE,
                          "tree").end
    assert ring < tree


def test_commodity_allreduce_bandwidth_matches_paper():
    """Section 6.1 measurement: ~1 GB/s all-reduce bandwidth on the 8x3090
    machine with NCCL, despite 13-16 GB/s point-to-point links."""
    numel = 187_500_000
    timing = time_allreduce(fresh(backend="nccl"), list(range(8)), numel,
                            DENSE, "ring")
    algo_bw = numel * 4 / timing.end
    assert 0.5e9 < algo_bw < 2e9


def test_dgx_allreduce_bandwidth_matches_paper():
    """Table 2: DGX-1 all-reduce bandwidth reaches tens of GB/s."""
    numel = 187_500_000
    timing = time_allreduce(fresh("dgx1", "nccl"), list(range(8)), numel,
                            DENSE, "ring")
    algo_bw = numel * 4 / timing.end
    assert algo_bw > 20e9


def test_wire_bytes_accounted():
    numel = 1 << 20
    timing = time_allreduce(fresh(), list(range(8)), numel, Q4, "sra")
    # SRA: each rank sends 7 foreign chunks + 7 broadcast sends per owner
    chunk = numel // 8
    expected_per_chunk = Q4.wire_bytes(chunk)
    assert timing.wire_bytes == pytest.approx(
        expected_per_chunk * (7 * 8 + 7 * 8), rel=0.01
    )


def test_kernel_calls_counted_only_when_compressing():
    dense = time_allreduce(fresh(), list(range(4)), 1 << 20, DENSE, "sra")
    q = time_allreduce(fresh(), list(range(4)), 1 << 20, Q4, "sra")
    fake = time_allreduce(fresh(), list(range(4)), 1 << 20,
                          CompressionSpec("fake", ratio=8), "sra")
    assert dense.kernel_calls == 0
    assert q.kernel_calls > 0
    assert fake.kernel_calls == 0  # fake compression runs no kernel


def test_kernel_factor_slows_quantized_collective():
    base = time_allreduce(fresh(), list(range(8)), 50_000_000, Q4, "ring",
                          kernel_factor=1.0).end
    slow = time_allreduce(fresh(), list(range(8)), 50_000_000, Q4, "ring",
                          kernel_factor=4.0).end
    assert slow > base


def test_chunk_streams_speed_up_sra():
    """The paper's +5% from assigning SRA chunks to separate streams."""
    numel = 187_500_000
    serial = time_allreduce(fresh(), list(range(8)), numel, Q4, "sra",
                            chunk_streams=1).end
    parallel = time_allreduce(fresh(), list(range(8)), numel, Q4, "sra",
                              chunk_streams=4).end
    assert parallel < serial


def test_single_rank_is_free():
    timing = time_allreduce(fresh(), [0], 1 << 20, Q4, "sra", ready=1.0)
    assert timing.end == 1.0
    assert timing.wire_bytes == 0


def test_ready_list_respected():
    ready = [0.0, 0.0, 0.0, 1.0]
    timing = time_allreduce(fresh(), [0, 1, 2, 3], 1 << 16, DENSE, "sra",
                            ready=ready)
    assert timing.end > 1.0


def test_ready_length_validation():
    with pytest.raises(ValueError):
        time_allreduce(fresh(), [0, 1], 100, DENSE, "sra", ready=[0.0])


def test_mpi_backend_slower_than_shm():
    """Figure 11: SHM > NCCL > MPI for the CGX engine."""
    numel = 87_000_000  # ViT
    times = {}
    for backend in ["shm", "nccl", "mpi"]:
        net = fresh(backend=backend)
        times[backend] = time_allreduce(net, list(range(8)), numel, Q4,
                                        "sra").end
    assert times["shm"] < times["nccl"] < times["mpi"]


def test_hier_scheme_beats_flat_on_multinode():
    """Hierarchical reduction pays off across slow inter-node links."""
    cluster = make_cluster("genesis-4x3090", 4)
    numel = 187_500_000
    flat = time_allreduce(Network(cluster, "nccl"), list(range(16)), numel,
                          Q4, "sra").end
    hier = time_allreduce(Network(cluster, "nccl"), list(range(16)), numel,
                          Q4, "hier").end
    assert hier < flat


def test_hier_on_single_node_equals_sra():
    net_a = fresh()
    net_b = fresh()
    sra = time_allreduce(net_a, list(range(8)), 1 << 22, Q4, "sra").end
    hier = time_allreduce(net_b, list(range(8)), 1 << 22, Q4, "hier").end
    assert hier == pytest.approx(sra)


# -- the counted entry points --------------------------------------------------

def _messages(schedule: Schedule) -> int:
    """Messages a declared schedule puts on the wire (its stages'
    included): each send, and each edge of each cast."""
    return sum(_messages(part.schedule) if isinstance(part, Stage)
               else len(part.sends) + sum(len(c.edges) for c in part.casts)
               for part in schedule.rounds)


@pytest.mark.parametrize("scheme", ["sra", "ring", "tree", "allgather", "ps",
                                    "hier"])
@pytest.mark.parametrize("world", [2, 3, 4, 8])
@pytest.mark.parametrize("spec", [DENSE, Q4], ids=["none", "qsgd4"])
def test_one_counted_call_per_message_and_per_kernel(monkeypatch, scheme,
                                                     world, spec):
    # wrap the class attributes exactly as the benchmark tracer does: a
    # timed path that reached the walk or an engine any other way would
    # leave these counts short
    sent: list[int] = []
    kernels = [0]
    transfer, run_kernel = Network.transfer, Network.run_kernel

    def counted_transfer(self, src, dst, nbytes, ready, *args, **kwargs):
        sent.append(nbytes)
        return transfer(self, src, dst, nbytes, ready, *args, **kwargs)

    def counted_kernel(self, *args, **kwargs):
        kernels[0] += 1
        return run_kernel(self, *args, **kwargs)

    monkeypatch.setattr(Network, "transfer", counted_transfer)
    monkeypatch.setattr(Network, "run_kernel", counted_kernel)
    # ranks straddle two nodes, so hier runs all three of its stages
    local = (world + 1) // 2
    ranks = list(range(local)) + list(range(8, 8 + world - local))
    net = Network(make_cluster("rtx3090-8x", 2))
    timing = time_allreduce(net, ranks, 1_000_003, spec, scheme,
                            ready=[0.001 * r for r in range(world)],
                            chunk_streams=2, job=4)
    node_of = tuple(net.topology.node_of[rank] for rank in ranks)
    schedule = hier_schedule(node_of) if scheme == "hier" \
        else FLAT_SCHEDULES[scheme](world)
    assert len(sent) == _messages(schedule)
    assert timing.wire_bytes == sum(sent)
    assert kernels[0] == timing.kernel_calls
    assert (timing.kernel_calls > 0) == (spec is Q4)


# -- one declared schedule, two interpreters ----------------------------------

TIMED_CELLS = [*scheme_cells(range(1, 9)), *EXPLICIT_CELLS,
               *SINGLE_MEMBER_CELLS.values()]


def _timed_sends(cell, spec: CompressionSpec, numel: int,
                 monkeypatch) -> Counter:
    """``(src, dst, bytes)`` of every ``Network.transfer`` the timed path
    calls for ``cell``, in the cell's ranks (hier runs on two nodes placed
    per the row's ``node_of``; a quorum row's participants are ready
    first, in rank order, so the earliest-ready member is the lowest)."""
    node_of = cell.node_of or (0,) * cell.world
    taken = [0, 0]
    gpus = []
    for node in node_of:
        gpus.append(8 * node + taken[node])
        taken[node] += 1
    sent: Counter = Counter()
    transfer = Network.transfer

    def counted(self, src, dst, nbytes, ready, *args, **kwargs):
        sent[gpus.index(src), gpus.index(dst), nbytes] += 1
        return transfer(self, src, dst, nbytes, ready, *args, **kwargs)

    monkeypatch.setattr(Network, "transfer", counted)
    net = Network(make_cluster("rtx3090-8x", 2))
    if cell.scheme == "partial":
        order = [*cell.participants,
                 *(r for r in range(cell.world) if r not in cell.participants)]
        ready = [1e-4 * order.index(rank) for rank in range(cell.world)]
        time_partial_allreduce(net, gpus, numel, spec,
                               len(cell.participants), ready)
    else:
        time_allreduce(net, gpus, numel, spec, cell.scheme)
    return sent


@pytest.mark.parametrize("spec", [DENSE, Q4], ids=["none", "qsgd4"])
@pytest.mark.parametrize("cell", TIMED_CELLS, ids=lambda cell: (
    f"{cell.scheme}-{cell.world}-{cell.node_of}-{cell.participants}"))
def test_timed_path_sends_what_the_data_path_sends(cell, spec, monkeypatch):
    """Both interpreters of a scheme's declared schedule put the same
    messages on the wire: the data path's traced sends equal the timed
    path's transfers as a multiset of (src, dst, bytes)."""
    numel = 97
    rng = np.random.default_rng(0)
    buffers = [rng.standard_normal(numel).astype(np.float32)
               for _ in range(cell.world)]
    with capture() as trace:
        run_cell(cell, buffers, make_compressor(spec), rng)
    traced = Counter((e.src, e.dst, e.nbytes) for e in trace.sends)
    assert traced == _timed_sends(cell, spec, numel, monkeypatch)


@pytest.mark.parametrize("world", [1, 4])
@pytest.mark.parametrize("spec", [Q4, CompressionSpec("powersgd", rank=4)],
                         ids=["qsgd4", "powersgd"])
def test_unknown_scheme_is_refused_at_every_world(world, spec):
    """A world of one returns before any message, but not before the
    scheme is checked — as the data path's ``allreduce`` refuses it — and
    a factored operator charges no kernel first."""
    net = fresh()
    with pytest.raises(KeyError, match="bogus"):
        time_allreduce(net, list(range(world)), (4096 * 3, (4096, 3)),
                       spec, scheme="bogus")
    assert net.pool.busy_seconds() == {}
