"""Tests for the cluster simulator: GPUs, topologies, networks, machines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    BACKENDS,
    GPUS,
    Link,
    Network,
    Resource,
    ResourcePool,
    Topology,
    get_backend,
    get_gpu,
    get_machine,
    make_cluster,
    multinode,
    nvlink_mesh,
    pcie_dual_root,
)
import repro.cluster.gpu as gpu_module
from repro.cluster.gpu import TRAIN_FLOP_FACTOR
from repro.cluster.network import ROUTE_POLICIES
from repro.cluster.simclock import commit_route
from repro.cluster.topology import (ETHERNET_BANDWIDTH, ETHERNET_LATENCY,
                                    QPI_BANDWIDTH)
from repro.models import build_spec


# -- simclock -----------------------------------------------------------------

def test_resource_serializes_tasks():
    r = Resource("link")
    s1, e1 = r.schedule(0.0, 1.0)
    s2, e2 = r.schedule(0.0, 1.0)
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 2.0)
    assert r.busy_time == 2.0


def test_resource_respects_ready_time():
    r = Resource("x")
    s, e = r.schedule(5.0, 1.0)
    assert (s, e) == (5.0, 6.0)


def test_resource_rejects_negative_duration():
    with pytest.raises(ValueError):
        Resource("x").schedule(0.0, -1.0)


def test_resource_rejects_nan_and_names_itself():
    r = Resource("host0.mem.up")
    with pytest.raises(ValueError, match=r"resource host0\.mem\.up: "
                                         r"invalid duration nan"):
        r.schedule(0.0, float("nan"))
    with pytest.raises(ValueError, match="invalid duration -1e-12"):
        r.schedule(0.0, -1e-12)
    # a rejected task leaves the timeline untouched
    assert (r.busy_until, r.busy_time) == (0.0, 0.0)
    assert r.schedule(2.0, -0.0) == (2.0, 2.0)   # negative zero is zero


def test_network_transfer_rejects_nan_bytes():
    for policy in ROUTE_POLICIES:
        net = Network(nvlink_mesh(4), route_policy=policy)
        with pytest.raises(ValueError, match=r"resource nvlink\.g0g1\.up: "
                                             r"invalid duration nan"):
            net.transfer(0, 1, float("nan"), 0.0)
        assert set(net.pool.busy_seconds().values()) == {0.0}


def _resource_state(resource: Resource) -> tuple:
    """Everything an occupation writes, floats as ``hex`` (bit for bit)."""
    return (resource.busy_until.hex(), resource.busy_time.hex(),
            {job: seconds.hex()
             for job, seconds in resource.busy_by_job.items()},
            None if resource.ledger is None
            else [(job, seconds.hex()) for job, seconds in resource.ledger])


_HOP = st.tuples(st.integers(0, 3),                       # resource index
                 st.floats(1e8, 1e11),                    # bandwidth
                 st.floats(0.0, 1e-4))                    # latency
_MESSAGE = st.tuples(st.lists(_HOP, max_size=5),          # route
                     st.floats(0.0, 2.0),                 # ready
                     st.floats(0.0, 1e9),                 # bytes
                     st.sampled_from([1.0, 0.5, 0.375]),  # throttle rate
                     st.sampled_from([1.0, 2.5]),         # fault stretch
                     st.sampled_from([None, 1, 2]))       # job


@settings(max_examples=150, deadline=None)
@given(messages=st.lists(_MESSAGE, max_size=12), audit=st.booleans())
def test_commit_route_is_hop_by_hop_schedule(messages, audit):
    committed = [Resource(f"r{i}", audit=audit) for i in range(4)]
    reference = [Resource(f"r{i}", audit=audit) for i in range(4)]
    for route, ready, nbytes, rate, slow, job in messages:
        hops: list[tuple] = []
        end = commit_route([(committed[i], bw, lat) for i, bw, lat in route],
                           ready, nbytes, rate, slow, job,
                           lambda *hop: hops.append(hop))
        t = ready
        want = []
        for i, bandwidth, latency in route:
            start, t = reference[i].schedule(
                t, slow * (nbytes / (bandwidth * rate) + latency), job)
            want.append((reference[i].name, start.hex(), t.hex()))
        assert end.hex() == t.hex()
        assert [(name, a.hex(), b.hex()) for name, a, b in hops] == want
    for fast, slow_ in zip(committed, reference):
        assert _resource_state(fast) == _resource_state(slow_)


def test_commit_route_rejects_a_bad_hop_where_schedule_does():
    # the check runs per hop: earlier hops stay committed, exactly as the
    # hop-by-hop loop leaves them
    for bad in (float("nan"), -1.0):
        committed = [Resource("a", audit=True), Resource("b", audit=True)]
        reference = [Resource("a", audit=True), Resource("b", audit=True)]
        with pytest.raises(ValueError, match="resource b: invalid duration"):
            commit_route([(committed[0], 1e9, 0.0), (committed[1], 1e9, bad)],
                         0.0, 1e6, 1.0, 1.0, 3)
        start, end = reference[0].schedule(0.0, 1e6 / 1e9, 3)
        with pytest.raises(ValueError, match="resource b: invalid duration"):
            reference[1].schedule(end, 1e6 / 1e9 + bad, 3)
        assert [_resource_state(r) for r in committed] \
            == [_resource_state(r) for r in reference]


def test_audit_ledgers_replay_the_live_counters_under_mixed_traffic():
    # every occupation goes through simclock (Resource.schedule or
    # commit_route), so no writer can bump a counter without appending to
    # the ledger (SCD003's premise)
    net = Network(pcie_dual_root(4))
    net.enable_conservation_audit()
    pool = net.pool
    pool.get("pcie.g0.up").schedule(0.0, 0.1, job=1)
    for name in ("pcie.g0.up", "hostmem.r0.up", "scratch"):
        pool.get(name).schedule(0.0, 0.3, job=2)
    pool.get("scratch").schedule(0.0, 0.7)               # untagged
    net.run_kernel(0, "compress0", 0.2, 0.0, job=1)
    net.transfer(0, 3, 1 << 20, 0.0, job=2)
    net.transfer(3, 0, 1 << 18, 0.0)
    for name, resource in pool.resources().items():
        assert resource.replay_float_accumulation() == \
            (resource.busy_time, resource.busy_by_job), name
    assert [len(pool.get(n).audit_ledger())
            for n in ("pcie.g0.up", "scratch", "gpu0.compress0")] == [3, 2, 1]


def test_pool_utilization():
    pool = ResourcePool()
    pool.get("a").schedule(0.0, 2.0)
    assert pool.utilization(4.0)["a"] == pytest.approx(0.5)


# -- GPUs ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GPUS))
def test_effective_rate_is_the_anchor_model_formula(name):
    gpu = GPUS[name]
    anchors = {"cnn": ("resnet50", gpu.resnet50_imgs_per_s),
               "transformer": ("transformer_xl", gpu.txl_tokens_per_s)}
    for model_class, (model, throughput) in anchors.items():
        want = build_spec(model).flops_per_item * TRAIN_FLOP_FACTOR \
            * throughput
        assert gpu.effective_rate(model_class).hex() == want.hex()
    with pytest.raises(ValueError, match="unknown model class 'rnn'"):
        gpu.effective_rate("rnn")


def test_effective_rate_builds_no_spec_once_warm(monkeypatch):
    for model_class in ("cnn", "transformer"):
        gpu_module.anchor_flops_per_item(model_class)

    def no_build(name):
        raise AssertionError(f"build_spec({name!r}) on the compute path")

    monkeypatch.setattr(gpu_module, "build_spec", no_build)
    spec = build_spec("bert")
    for gpu in GPUS.values():
        assert gpu.step_compute_time(spec, 4) > 0
        assert gpu.effective_rate("cnn") > 0


def test_gpu_catalog_matches_table1():
    v100 = get_gpu("V100")
    assert v100.gpu_direct and v100.memory_gb == 16
    rtx = get_gpu("RTX3090")
    assert not rtx.gpu_direct and rtx.memory_gb == 24
    assert get_gpu("RTX2080Ti").memory_gb == 10
    assert len(GPUS) == 4


def test_single_gpu_throughput_reproduces_anchors():
    """The calibration must reproduce Table 1's measured throughputs."""
    for gpu_name, model, expected in [
        ("V100", "resnet50", 1226.0),
        ("RTX3090", "resnet50", 850.0),
        ("V100", "transformer_xl", 37_000.0),
        ("RTX3090", "transformer_xl", 39_000.0),
        ("RTX2080Ti", "transformer_xl", 13_000.0),
    ]:
        gpu = get_gpu(gpu_name)
        spec = build_spec(model)
        batch = 32
        step = gpu.step_compute_time(spec, batch)
        items = batch * spec.items_per_sample
        assert items / step == pytest.approx(expected, rel=1e-6)


def test_memory_limits_batch():
    spec = build_spec("transformer_xl")
    assert get_gpu("RTX2080Ti").max_batch_per_gpu(spec) < \
        get_gpu("RTX3090").max_batch_per_gpu(spec)


def test_unknown_gpu_raises():
    with pytest.raises(KeyError):
        get_gpu("H100")


# -- topologies ------------------------------------------------------------------

def test_pcie_topology_routes_and_numa():
    topo = pcie_dual_root(8)
    assert topo.n_gpus == 8
    assert topo.numa_of == [0, 0, 0, 0, 1, 1, 1, 1]
    # same-NUMA route avoids QPI
    same = [l.name for l in topo.path(0, 1)]
    assert not any("qpi" in n for n in same)
    cross = [l.name for l in topo.path(0, 7)]
    assert any("qpi" in n for n in cross)
    assert topo.staged_through_host


def test_pcie_single_root():
    topo = pcie_dual_root(4, roots=1)
    assert topo.numa_of == [0, 0, 0, 0]
    assert not any("qpi" in name for name in topo.links)


def test_pcie_rejects_odd_dual_root():
    with pytest.raises(ValueError):
        pcie_dual_root(7)


def test_nvlink_mesh_neighbors_direct():
    topo = nvlink_mesh(8)
    assert len(topo.path(0, 1)) == 1
    assert len(topo.path(0, 4)) == 4  # opposite side of the ring
    assert not topo.staged_through_host


def test_nvlink_routes_shortest_way():
    topo = nvlink_mesh(8)
    assert len(topo.path(0, 7)) == 1  # wraps around


def test_path_bandwidth_and_latency():
    topo = pcie_dual_root(8, pcie_bandwidth=14e9)
    assert topo.path_bandwidth(0, 7) == QPI_BANDWIDTH  # QPI bottleneck
    assert topo.path_bandwidth(0, 1) == 14e9


def test_no_route_raises():
    topo = Topology("empty", 2, {}, {})
    with pytest.raises(KeyError):
        topo.path(0, 1)


def test_self_route_is_empty():
    topo = pcie_dual_root(4, roots=1)
    assert topo.path(2, 2) == []
    assert topo.path_bandwidth(2, 2) == float("inf")


def test_describe_renders_numa_groups():
    text = pcie_dual_root(8).describe()
    assert "NUMA0" in text and "NUMA1" in text
    assert "staged via host memory" in text


def test_link_validation():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=0, latency=0)
    with pytest.raises(ValueError):
        Link("bad", bandwidth=1e9, latency=-1)


def test_multinode_cluster_structure():
    cluster = make_cluster("genesis-4x3090", 4)
    assert cluster.n_gpus == 16
    assert cluster.node_of == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4
    cross = [l.name for l in cluster.path(0, 12)]
    assert any("eth" in n for n in cross)
    intra = [l.name for l in cluster.path(0, 1)]
    assert not any("eth" in n for n in intra)
    assert cluster.gpus_on_node(2) == [8, 9, 10, 11]


def test_multinode_uses_the_table5_ethernet():
    node = get_machine("genesis-4x3090").topology()
    for cluster in (multinode([node, node]),
                    make_cluster("genesis-4x3090", 2)):
        eth = [link for name, link in cluster.links.items()
               if name.startswith("eth.")]
        assert len(eth) == 4   # one up/down NIC pair per node
        for link in eth:
            assert link.bandwidth == ETHERNET_BANDWIDTH == 0.625e9
            assert link.latency == ETHERNET_LATENCY == 30e-6


# -- network --------------------------------------------------------------------

def test_transfer_time_scales_with_bytes():
    machine = get_machine("rtx3090-8x")
    t_small = machine.network("shm").transfer(0, 1, 1 << 20, 0.0)
    t_large = machine.network("shm").transfer(0, 1, 1 << 26, 0.0)
    assert t_large > t_small * 10


def test_concurrent_transfers_contend_on_shared_links():
    """Two flows through the same host-memory bridge serialize there."""
    machine = get_machine("rtx3090-8x")
    nbytes = 1 << 26
    solo = machine.network("shm").transfer(0, 1, nbytes, 0.0)
    net = machine.network("shm")
    net.transfer(0, 1, nbytes, 0.0)
    contended = net.transfer(2, 3, nbytes, 0.0)  # same NUMA root
    assert contended > solo * 1.15


def test_disjoint_paths_do_not_contend():
    machine = get_machine("dgx1")
    nbytes = 1 << 26
    solo = machine.network("nccl").transfer(0, 1, nbytes, 0.0)
    net = machine.network("nccl")
    net.transfer(0, 1, nbytes, 0.0)
    other = net.transfer(4, 5, nbytes, 0.0)  # different nvlink pair
    assert other == pytest.approx(solo, rel=1e-6)


def test_commodity_vs_nvlink_bandwidth_gap():
    """Reproduces Table 2's measured difference: ~14 GB/s bus vs
    ~100 GB/s NVLink point-to-point."""
    nbytes = 256 * 1024 * 1024

    def p2p_bandwidth(machine: str) -> float:
        topology = get_machine(machine).topology()
        return nbytes / Network(topology).transfer(0, 1, nbytes, 0.0)

    bw_commodity = p2p_bandwidth("rtx3090-8x")
    bw_dgx = p2p_bandwidth("dgx1")
    assert bw_dgx > 5 * bw_commodity
    assert 4e9 < bw_commodity < 20e9
    assert 50e9 < bw_dgx < 120e9


def test_zero_gpu_transfer_is_noop():
    net = get_machine("dgx1").network("shm")
    assert net.transfer(3, 3, 1 << 20, 7.0) == 7.0


def test_network_trace():
    net = get_machine("dgx1").network("shm")
    net.enable_trace()
    net.transfer(0, 1, 1024, 0.0)
    assert len(net.trace) == 1
    assert net.trace[0].src == 0 and net.trace[0].nbytes == 1024


def test_chrome_trace_export(tmp_path):
    import json

    from repro.cluster import export_chrome_trace

    net = get_machine("dgx1").network("shm")
    net.enable_trace()
    net.transfer(0, 1, 1 << 20, 0.0)
    net.transfer(1, 2, 1 << 20, 0.0)
    path = tmp_path / "trace.json"
    count = export_chrome_trace(net, str(path))
    assert count == 2
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert len(events) == 2
    assert events[0]["ph"] == "X"
    assert events[0]["tid"] == 0 and events[1]["tid"] == 1
    assert events[0]["dur"] > 0


def test_run_kernel_serializes_per_engine():
    net = get_machine("dgx1").network("shm")
    e1 = net.run_kernel(0, "compress", 1e-3, 0.0)
    e2 = net.run_kernel(0, "compress", 1e-3, 0.0)
    e3 = net.run_kernel(1, "compress", 1e-3, 0.0)  # other GPU: parallel
    assert e2 == pytest.approx(2e-3)
    assert e3 == pytest.approx(1e-3)


# -- backends / machines ----------------------------------------------------------

def test_backend_catalog():
    assert set(BACKENDS) == {"shm", "nccl", "mpi", "gloo"}
    assert get_backend("shm").alpha < get_backend("nccl").alpha
    assert get_backend("mpi").sync_per_op > 0
    # the paper: NCCL showed better performance than OpenMPI or Gloo
    assert get_backend("gloo").copy_factor >= get_backend("nccl").copy_factor
    assert get_backend("gloo").alpha > get_backend("nccl").alpha


def test_machine_catalog_matches_table2():
    m3090 = get_machine("rtx3090-8x")
    assert m3090.n_gpus == 8 and m3090.interconnect == "pcie"
    dgx = get_machine("dgx1")
    assert dgx.interconnect == "nvlink" and dgx.gpu.name == "V100"
    assert get_machine("genesis-4x3090").price_per_hour == 6.8


def test_machine_subset_topologies():
    m = get_machine("rtx3090-8x")
    assert max(m.topology(4).numa_of) == 0   # 4 GPUs fit one root
    assert max(m.topology(8).numa_of) == 1   # 8 span two roots
    with pytest.raises(ValueError):
        m.topology(16)


@pytest.mark.parametrize("n_gpus", [0, -1])
def test_machine_topology_rejects_fewer_than_one_gpu(n_gpus):
    # 0 used to read as "all GPUs" (``n_gpus or self.n_gpus``)
    with pytest.raises(ValueError, match="requested"):
        get_machine("rtx3090-8x").topology(n_gpus)


def test_single_gpu_topology_degenerate():
    topo = get_machine("dgx1").topology(1)
    assert topo.n_gpus == 1 and not topo.links
