"""Property-based tests over the timed collective schedules."""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.cluster import Network, get_machine
from repro.collectives import drain_channel, time_allreduce
from repro.compression import CompressionSpec

SCHEMES = ["sra", "ring", "tree", "allgather", "ps", "hier"]


def fresh_network(machine="rtx3090-8x", backend="shm"):
    return get_machine(machine).network(backend)


@given(
    scheme=st.sampled_from(SCHEMES),
    numel=st.integers(1_000, 5_000_000),
    world=st.sampled_from([2, 4, 8]),
    ready=st.floats(0.0, 0.5),
)
@settings(max_examples=50, deadline=None)
def test_end_after_ready_and_positive_wire(scheme, numel, world, ready):
    net = fresh_network()
    timing = time_allreduce(net, list(range(world)), numel,
                            CompressionSpec("qsgd", bits=4, bucket_size=128),
                            scheme, ready=ready)
    assert len(timing.end_times) == world
    assert all(t > ready for t in timing.end_times)
    assert timing.wire_bytes > 0
    assert timing.kernel_calls > 0


@given(
    scheme=st.sampled_from(["sra", "ring", "tree"]),
    numel=st.integers(4_000_000, 50_000_000),
)
@settings(max_examples=30, deadline=None)
def test_compression_never_slower_at_scale(scheme, numel):
    """For bandwidth-dominated buffers (16+ MB), 4-bit quantization never
    makes the commodity allreduce slower than dense.  (Small buffers are
    launch-overhead-bound and genuinely get *slower* under compression —
    which is precisely why CGX filters small layers.)"""
    dense = time_allreduce(fresh_network(), list(range(8)), numel,
                           CompressionSpec("none"), scheme).end
    q4 = time_allreduce(fresh_network(), list(range(8)), numel,
                        CompressionSpec("qsgd", bits=4, bucket_size=128),
                        scheme).end
    assert q4 <= dense * 1.05


@given(numel=st.integers(10_000, 2_000_000),
       scheme=st.sampled_from(SCHEMES))
@settings(max_examples=30, deadline=None)
def test_makespan_bounded_below_by_physics(numel, scheme):
    """No schedule beats the physical floor: the bottleneck link must
    carry at least one compressed chunk."""
    spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    net = fresh_network()
    timing = time_allreduce(net, list(range(8)), numel, spec, scheme)
    slowest_link = min(l.bandwidth for l in net.topology.links.values())
    chunk_bytes = spec.wire_bytes(numel // 8)
    assert timing.end >= chunk_bytes / slowest_link


@given(numel=st.integers(1_000, 1_000_000))
@settings(max_examples=20, deadline=None)
def test_wire_bytes_independent_of_backend(numel):
    """Backends change timing, never payload size."""
    spec = CompressionSpec("qsgd", bits=4, bucket_size=128)
    wires = set()
    for backend in ["shm", "nccl", "mpi", "gloo"]:
        timing = time_allreduce(fresh_network(backend=backend),
                                list(range(8)), numel, spec, "sra")
        wires.add(timing.wire_bytes)
    assert len(wires) == 1


@given(world=st.sampled_from([2, 4, 8]),
       numel=st.integers(10_000, 1_000_000))
@settings(max_examples=20, deadline=None)
def test_more_bits_more_wire_time_ordering(world, numel):
    """Wire bytes rise monotonically with bit-width at fixed size."""
    wires = []
    for bits in [2, 4, 8]:
        spec = CompressionSpec("qsgd", bits=bits, bucket_size=128)
        timing = time_allreduce(fresh_network(), list(range(world)), numel,
                                spec, "sra")
        wires.append(timing.wire_bytes)
    assert wires[0] < wires[1] < wires[2]


def test_stale_ready_times_propagate():
    """A later-ready rank delays a full collective by at least its gap."""
    ready = [0.0] * 7 + [0.3]
    timing = time_allreduce(fresh_network(), list(range(8)), 1 << 20,
                            CompressionSpec("none"), "sra", ready=ready)
    assert timing.end > 0.3


def test_hier_respects_node_boundaries_on_cluster():
    from repro.cluster import make_cluster

    cluster = make_cluster("genesis-4x3090", 2)
    net = Network(cluster, "nccl")
    net.enable_trace()
    time_allreduce(net, list(range(8)), 1 << 20,
                   CompressionSpec("qsgd", bits=4, bucket_size=128), "hier")
    # only the leaders (ranks 0 and 4) exchange cross-node traffic
    cross = [(t.src, t.dst) for t in net.trace
             if cluster.node_of[t.src] != cluster.node_of[t.dst]]
    assert cross
    assert all({src, dst} == {0, 4} for src, dst in cross)


# -- the single-channel drain --------------------------------------------------

def _serve(order, ready, duration):
    """Launch/land times of serving items in ``order`` on one channel."""
    free, schedule = 0.0, []
    for i in order:
        launch = max(free, ready[i])
        free = launch + duration[i]
        schedule.append((i, launch, free))
    return schedule


def _first_needed_first_sent(schedule, ready, priority):
    """Every launch picks the lowest-(priority, index) item among those
    sealed when the channel decides: at its free time, or — nothing
    sealed yet — at the earliest pending seal."""
    pending, free = {i for i, _, _ in schedule}, 0.0
    for i, _, landed in schedule:
        decide = max(free, min(ready[j] for j in pending))
        sealed = [j for j in pending if ready[j] <= decide]
        if (priority[i], i) != min((priority[j], j) for j in sealed):
            return False
        pending.remove(i)
        free = landed
    return True


@given(items=st.lists(
    st.tuples(st.sampled_from([0.0, 1e-3, 2e-3, 3.5e-3, 9e-3]),  # seal
              st.integers(0, 3),                                  # priority
              st.floats(1e-4, 5e-3)),                             # comm
    min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_drain_channel_matches_brute_force(items):
    ready, priority, duration = zip(*items)
    launched = drain_channel(range(len(items)), lambda i: ready[i],
                             lambda i: priority[i],
                             lambda i, launch: launch + duration[i])
    assert sorted(i for i, _, _ in launched) == list(range(len(items)))
    for i, launch, landed in launched:
        assert launch >= ready[i] and landed == launch + duration[i]
    for (_, _, landed), (_, launch, _) in zip(launched, launched[1:]):
        assert launch >= landed        # one channel: disjoint intervals
    # of all n! service orders exactly one obeys the launch discipline,
    # and it is the one drain_channel produced
    obeying = [_serve(order, ready, duration)
               for order in permutations(range(len(items)))
               if _first_needed_first_sent(_serve(order, ready, duration),
                                           ready, priority)]
    assert obeying == [launched]


@given(durations=st.lists(st.floats(1e-4, 5e-3), min_size=1, max_size=8),
       seal=st.floats(0.0, 1e-2))
@settings(max_examples=50, deadline=None)
def test_drain_channel_degenerate_schedule_is_emission_order(durations, seal):
    """Everything sealed at once, priority = emission index: the
    sequential baseline — back-to-back in emission order from ``seal``."""
    launched = drain_channel(range(len(durations)), lambda i: seal,
                             lambda i: i,
                             lambda i, launch: launch + durations[i])
    assert launched == _serve(range(len(durations)),
                              [seal] * len(durations), durations)
    assert launched[0][1] == seal
