"""Sharing one network between jobs: tagging, throttles, routing.

The fleet scheduler runs many jobs on one link-resource pool; these
tests pin the network-level machinery it relies on — per-job busy
accounting, per-job trace clearing (a drained job must not wipe a
neighbor's accounting), psim-style throttle rates, adaptive route
selection, and the binned link-load timelines.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Network, make_cluster, nvlink_mesh
from repro.cluster.simclock import commit_route

MB = 1 << 20


def test_transfers_attribute_busy_time_per_job():
    net = Network(make_cluster("rtx3090-8x", 2))
    net.transfer(0, 1, 4 * MB, 0.0, job=1)
    net.transfer(2, 3, 4 * MB, 0.0, job=2)
    net.transfer(4, 5, 4 * MB, 0.0)          # untagged single-job style
    seconds1 = net.job_link_seconds(1)
    seconds2 = net.job_link_seconds(2)
    assert seconds1 and seconds2
    assert sum(seconds1.values()) > 0
    # attribution is disjoint: job 1's seconds never count for job 2
    assert not set(seconds1) & set(seconds2) or all(
        seconds1[k] > 0 and seconds2[k] > 0
        for k in set(seconds1) & set(seconds2))
    assert net.job_link_seconds(99) == {}


def test_job_throttle_scales_service_time():
    topo = make_cluster("rtx3090-8x", 2)
    free_end = Network(topo).transfer(0, 8, 16 * MB, 0.0, job=1)

    net = Network(topo)
    net.set_job_throttle(1, 0.5)
    assert net.job_throttle(1) == 0.5
    assert net.job_throttle(2) == 1.0    # others unaffected
    throttled_end = net.transfer(0, 8, 16 * MB, 0.0, job=1)
    assert throttled_end > free_end      # half the bandwidth, longer wire time

    net.clear_job_throttle(1)
    assert net.job_throttle(1) == 1.0
    with pytest.raises(ValueError):
        net.set_job_throttle(1, 0.0)
    with pytest.raises(ValueError):
        net.set_job_throttle(1, 1.5)


def test_adaptive_routing_detours_around_congestion():
    topo = nvlink_mesh(4)
    assert topo.alt_routes   # the ring registers long-way detours

    static = Network(topo, route_policy="static")
    adaptive = Network(topo, route_policy="adaptive")
    for net in (static, adaptive):
        # hog the primary 0->1 link so the ring's long way looks better
        net.transfer(0, 1, 256 * MB, 0.0, job=1)
    t_static = static.transfer(0, 1, MB, 0.0, job=2)
    t_adaptive = adaptive.transfer(0, 1, MB, 0.0, job=2)
    assert t_adaptive < t_static


def test_adaptive_routing_keeps_primary_on_ties():
    topo = nvlink_mesh(4)
    # empty network: primary route is (weakly) fastest, must be kept, so
    # static and adaptive stay byte-for-byte interchangeable when idle
    t_static = Network(topo, route_policy="static").transfer(0, 1, MB, 0.0)
    t_adaptive = Network(topo, route_policy="adaptive").transfer(0, 1, MB, 0.0)
    assert t_adaptive == t_static


def test_route_policy_validated():
    with pytest.raises(ValueError):
        Network(nvlink_mesh(4), route_policy="quantum")


def test_link_load_timelines_bin_busy_seconds():
    net = Network(nvlink_mesh(4))
    net.enable_link_loads(bin_width=0.001)
    assert net.load_bin_width == 0.001
    net.transfer(0, 1, 64 * MB, 0.0, job=1)
    loads = net.link_loads()
    assert loads
    for bins in loads.values():
        # each bin holds at most its own width of busy time
        assert all(0 < v <= 0.001 + 1e-12 for v in bins.values())
    with pytest.raises(ValueError):
        net.enable_link_loads(bin_width=0.0)


def test_kernels_are_job_tagged_too():
    net = Network(nvlink_mesh(4))
    net.run_kernel(0, "compress", 0.5, 0.0, job=3)
    assert net.job_link_seconds(3) == {"gpu0.compress": 0.5}


def _reference_bin_load(bins, width, start, end):
    """The pre-PR-23 binning loop, verbatim: the float-for-float oracle
    of ``Network._bin_load`` (same loop, ``min``/``max`` calls inlined)."""
    b = int(start / width)
    while b * width < end:
        lo, hi = b * width, (b + 1) * width
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            bins[b] = bins.get(b, 0.0) + overlap
        b += 1


def _assert_bins_equal_reference(width, intervals):
    """``intervals``: ((bin, where in it), bins spanned) — ``where`` is a
    fraction of the bin, or +-inf for one ulp above / below its edge."""
    net = Network(nvlink_mesh(4))
    net.enable_link_loads(width)
    want = {}
    for (b, where), spanned in intervals:
        start = max(0.0, math.nextafter(b * width, where)
                    if math.isinf(where) else (b + where) * width)
        end = start + spanned * width
        net._bin_load("link", start, end)
        _reference_bin_load(want, width, start, end)
    assert net.link_loads() == {"link": want}   # floats compared exactly


_start = st.tuples(st.integers(0, 400),
                   st.one_of(st.sampled_from([0.0, -math.inf, math.inf]),
                             st.floats(0.0, 1.0, exclude_max=True)))
_bins_spanned = st.one_of(st.just(0.0), st.floats(0.0, 0.99),
                          st.floats(0.0, 70.0), st.integers(1, 30))


@given(intervals=st.lists(st.tuples(_start, _bins_spanned),
                          min_size=1, max_size=40),
       width=st.sampled_from([0.01, 0.001, 0.25]))
@settings(max_examples=200, deadline=None)
def test_bin_load_equals_the_reference_loop(intervals, width):
    # edges included: int(start / width) lands one bin high just below
    # some of them (bin 35 at width 0.01), and the loop's answer there
    # is part of the pinned link loads
    _assert_bins_equal_reference(width, intervals)


# -- resolve-once lifetime: what a network binds, and what it must not --------

def test_networks_on_one_topology_share_no_resource():
    # sched.metrics.isolated_step_times probes each job on a fresh
    # network over the fleet's topology: the probe must start empty
    topo = nvlink_mesh(4)
    busy, probe = Network(topo), Network(topo)
    busy.transfer(0, 1, 64 * MB, 0.0, job=1)
    busy.run_kernel(0, "compress0", 0.5, 0.0, job=1)
    assert probe.transfer(0, 1, MB, 0.0) == Network(topo).transfer(0, 1, MB, 0.0)
    probe.run_kernel(0, "compress0", 0.1, 0.0)
    mine, theirs = busy.pool.resources(), probe.pool.resources()
    assert set(mine) == set(theirs)
    assert not any(mine[name] is theirs[name] for name in mine)
    assert probe.pool.busy_seconds()["gpu0.compress0"] == 0.1


def test_peeking_a_detour_leaves_it_untouched():
    topo = nvlink_mesh(4)
    net = Network(topo, route_policy="adaptive")
    net.transfer(0, 1, MB, 0.0, job=1)    # idle ring: the primary wins
    primary = set(topo.routes[(0, 1)])
    detour = {name for alt in topo.alt_routes[(0, 1)] for name in alt}
    resources = net.pool.resources()
    assert detour <= set(resources)       # peeked, so resolved...
    for name in detour - primary:         # ...but never occupied
        assert resources[name].busy_time == 0.0
        assert resources[name].busy_until == 0.0
    assert all(resources[name].busy_time > 0 for name in primary)


@pytest.mark.parametrize("policy", ["static", "adaptive"])
def test_a_pair_with_no_links_binds_to_one_empty_route(policy):
    # the walk's src == dst contract: a message to itself is free — it
    # returns ``ready`` from either name of the walk and leaves no binding,
    # no resource, no byte and no trace record behind
    net = Network(nvlink_mesh(4), route_policy=policy)
    net.enable_trace()
    for walk in (net.transfer, net._walk):
        assert walk(2, 2, 64, 1.0, job=5) == 1.0
        assert walk(2, 2, 64, 1.0, None, 0.5) == 1.0
    assert net._routes == {} and net.pool.resources() == {}
    assert net.total_transferred_bytes() == 0 and net.trace == []
    assert net.transferred_bytes(5) == net.transferred_bytes(None) == 0
    # the binder itself still gives such a pair one empty route, under
    # either policy, and committing it costs nothing
    route, = net._resolve_route(2, 2)
    assert route == () and net.pool.resources() == {}
    assert commit_route(route, 1.0, 64, 1.0, 1.0, 5) == 1.0


def test_throttle_set_between_transfers_applies_to_the_second():
    topo = make_cluster("rtx3090-8x", 2)
    net = Network(topo)
    free = net.transfer(0, 8, 16 * MB, 0.0, job=1)    # binds the 0 -> 8 route
    net.set_job_throttle(1, 0.5)
    later = 10.0                                       # every link idle again
    throttled = net.transfer(0, 8, 16 * MB, later, job=1)

    expected = Network(topo)
    expected.set_job_throttle(1, 0.5)
    assert throttled == expected.transfer(0, 8, 16 * MB, later, job=1)
    assert throttled - later > free
    net.clear_job_throttle(1)
    assert net.transfer(0, 8, 16 * MB, 2 * later, job=1) \
        == Network(topo).transfer(0, 8, 16 * MB, 2 * later, job=1)
