"""Tests for the timed collective schedules."""

import pytest

from repro.cluster import get_machine, make_cluster, Network
from repro.collectives import time_allreduce
from repro.compression import CompressionSpec

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

def _messages(scheme: str, groups: list[int]) -> int:
    """Messages a scheme sends over ranks split into per-node ``groups``."""
    world = sum(groups)
    flat = {"sra": 2 * world * (world - 1), "ring": 2 * world * (world - 1),
            "tree": 2 * (world - 1), "allgather": world * (world - 1),
            "ps": 2 * (world - 1)}
    if scheme != "hier":
        return flat[scheme]
    if len(groups) == 1:
        return flat["sra"]
    nodes = len(groups)
    return (sum(2 * g * (g - 1) for g in groups)     # intra-node SRAs
            + 2 * nodes * (nodes - 1)                # leader SRA
            + sum(g - 1 for g in groups))            # leader broadcasts


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
    assert len(sent) == _messages(scheme, [local, world - local])
    assert timing.wire_bytes == sum(sent)
    assert kernels[0] == timing.kernel_calls
    assert (timing.kernel_calls > 0) == (spec is Q4)
