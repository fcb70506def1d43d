"""Golden replay of the timed path: ``cluster.Network`` and
``collectives.timing`` are bit-identical to the recorded parent.

``tests/fixtures/timing_golden.json`` was recorded on a clean checkout of
PR 23's parent (a9329bf, before routes and engines were resolved once per
network) by running :func:`replay_all` with that tree on ``PYTHONPATH``.
It pins, for a 24-job ``sample_fleet`` on 4 nodes under the benchmark
suite's four campaign shapes, the canonical log, the metrics document and
the pool's ``busy_seconds()`` *in iteration order* (resource creation
order is part of the contract); the binned link loads; every resource's
audit ledger; ``simulate_step`` / ``time_overlapped_step`` outputs as
``float.hex()``; and one ``FaultyNetwork`` step with a slowed link.

One hash is younger: the adaptive campaign's ``metrics`` was re-recorded
at PR 24, which moved the isolated baselines onto the fleet's routing
(``isolated_step_time`` / ``slowdown`` per job, hence ``fairness`` and
``mean_slowdown``, and nothing else in that document; its ``log`` and
``busy_seconds`` and the three static campaigns are a9329bf's).

The whole file was re-recorded at 2e530bd, when ``steps`` grew from
twelve 8-GPU cells to the full Fig. 3 grid below (keys now carry the
GPU count); every entry it already held came out unchanged.  Re-record
with
``python tests/fixtures/record_timing_golden.py <clean checkout of the
old tree>``.

The ``powersgd`` cells were added at 3edb7e9 and recorded there (every
older entry came out unchanged), before PowerSGD's P→Q pair moved from
``training.perf`` into ``collectives.timing``: Table 6's configs and the
CLI's on rtx3090-8x at 2, 4 and 8 GPUs, a 2-node ``hier`` step, a
straggler step, two jobs replayed on one shared network, and a plan of
rank-0 (1-D) PowerSGD packages.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import Network, get_backend, get_machine, make_cluster
from repro.collectives import (EXPLICIT_CELLS, SINGLE_MEMBER_CELLS,
                               TimedBucket, scheme_cells, time_allreduce,
                               time_overlapped_step, time_partial_allreduce)
from repro.compression import CompressionSpec
from repro.core import CGXConfig, LayerInfo, Package, qnccl_config
from repro.faults import FaultyNetwork, PlanRuntime, make_campaign
from repro.models import build_spec
from repro.sched import FleetSimulator, compute_metrics, sample_fleet
from repro.training import perf

GOLDEN = Path(__file__).parent / "fixtures" / "timing_golden.json"
SEED = 7
NODES = 4
#: the benchmark suite's campaign shapes: (machine, gpu, policy, routing)
CAMPAIGNS = {
    "packed": ("rtx3090-8x", "RTX3090", "packed", "static"),
    "spread": ("rtx3090-8x", "RTX3090", "spread", "static"),
    "numa": ("rtx3090-8x", "RTX3090", "numa", "static"),
    "adaptive": ("dgx1", "V100", "packed", "adaptive"),
}
#: the Fig. 3 grid the benchmark's ``paper_sweep`` simulates: every model,
#: machine, width and method — QNCCL is the one cell with a non-unit
#: ``kernel_factor`` (``QNCCL_KERNEL_OVERHEAD_FACTOR``)
STEP_MODELS = ("resnet50", "vgg16", "vit", "bert", "transformer_xl", "gpt2")
STEP_MACHINES = ("rtx3090-8x", "rtx2080-8x", "dgx1", "a6000-8x")
STEP_GPUS = (2, 4, 8)
STEP_METHODS = {"nccl": (CGXConfig.baseline_nccl, "fused"),
                "qnccl": (qnccl_config, "fused"),
                "cgx": (CGXConfig.cgx_default, "cgx")}
#: the ``schemes`` entry's axes: every cell-table row at these worlds,
#: the explicit and single-member rows, each under three operators x two
#: stream counts x two kernel factors
SCHEME_WORLDS = (1, 2, 3, 4, 5, 8)
SCHEME_SPECS = {"none": CompressionSpec("none"),
                "qsgd4": CompressionSpec("qsgd", bits=4, bucket_size=128),
                "topk": CompressionSpec("topk", density=0.1)}
SCHEME_NUMEL = 10_007
#: Table 6's PowerSGD rank per model (``bench_table6_frameworks.MODELS``)
POWERSGD_RANKS = {"resnet50": 4, "transformer_xl": 8, "bert": 8}


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _campaign(name: str, **options):
    machine, gpu, policy, routing = CAMPAIGNS[name]
    jobs = sample_fleet(24, seed=SEED, worlds=(2, 4, 8))
    return FleetSimulator(make_cluster(machine, NODES), jobs, gpu=gpu,
                          policy=policy, routing=routing, seed=SEED,
                          **options).run()


def replay_campaign(name: str) -> dict:
    result = _campaign(name)
    metrics = compute_metrics(result).to_dict()
    return {
        "log": _sha(result.log_bytes()),
        "metrics": _sha(json.dumps(metrics, sort_keys=True)),
        "busy_seconds": _sha(
            repr(list(result.network.pool.busy_seconds().items()))),
    }


def replay_link_loads() -> str:
    loads = _campaign("packed", link_load_bin=0.01).network.link_loads()
    return _sha(repr(sorted((name, sorted(bins.items()))
                            for name, bins in loads.items())))


def replay_ledgers() -> str:
    pool = _campaign("packed", audit=True).network.pool
    return _sha(repr([(name, res.audit_ledger())
                      for name, res in pool.resources().items()]))


def _hex_fields(timing) -> dict:
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in dataclasses.asdict(timing).items()}


def replay_steps() -> dict:
    rows = {}
    for model in STEP_MODELS:
        spec = build_spec(model)
        for machine in STEP_MACHINES:
            for gpus in STEP_GPUS:
                for method, (config, plan_mode) in STEP_METHODS.items():
                    rows[f"{model}|{machine}|{gpus}|{method}"] = _hex_fields(
                        perf.simulate_machine_step(
                            get_machine(machine), spec, config(),
                            n_gpus=gpus, plan_mode=plan_mode))
    hier = CGXConfig.cgx_default()
    hier.scheme = "hier"
    rows["resnet50|2 nodes|hier"] = _hex_fields(perf.simulate_step(
        build_spec("resnet50"), get_machine("rtx3090-8x").gpu,
        make_cluster("rtx3090-8x", 2), hier))
    return rows


def _powersgd(rank: int, error_feedback: bool = False,
              scheme: str = "sra") -> CGXConfig:
    """Table 6's PowerSGD config; ``rank=4, error_feedback=True`` is the
    CLI's ``simulate --method powersgd``."""
    return CGXConfig(backend="shm", scheme=scheme,
                     compression=CompressionSpec(
                         "powersgd", rank=rank,
                         error_feedback=error_feedback))


def _hex_replay(replayed: tuple[float, int, int]) -> dict:
    end, wire, kernels = replayed
    return {"end": end.hex(), "wire_bytes": wire, "kernel_calls": kernels}


def replay_powersgd() -> dict:
    rows = {}
    machine = get_machine("rtx3090-8x")
    for model, rank in POWERSGD_RANKS.items():
        spec = build_spec(model)
        for gpus in STEP_GPUS:
            for name, config in (("table6", _powersgd(rank)),
                                 ("cli", _powersgd(4, error_feedback=True))):
                rows[f"{model}|{gpus}|{name}"] = _hex_fields(
                    perf.simulate_machine_step(machine, spec, config,
                                               n_gpus=gpus))
    resnet = build_spec("resnet50")
    rows["resnet50|2 nodes|hier"] = _hex_fields(perf.simulate_step(
        resnet, machine.gpu, make_cluster("rtx3090-8x", 2),
        _powersgd(4, scheme="hier")))
    rows["resnet50|4|straggler"] = _hex_fields(perf.simulate_step(
        resnet, machine.gpu, machine.topology(4), _powersgd(4),
        compute_jitter=[0.0, 0.0, 0.5, 0.0]))

    # two jobs on one network, sharing GPUs 2 and 3
    net = Network(machine.topology(), get_backend("shm"))
    for job, (model, ranks, start) in enumerate(
            (("resnet50", [0, 1, 2, 3], 0.0),
             ("transformer_xl", [2, 3, 4, 5], 0.01)), start=1):
        spec, config = build_spec(model), _powersgd(POWERSGD_RANKS[model])
        compute = machine.gpu.step_compute_time(
            spec, machine.gpu.max_batch_per_gpu(spec))
        plan = perf.plan_step(spec, config, compute)
        rows[f"shared|job{job}"] = _hex_replay(perf.replay_step(
            net, ranks, plan, config, start=start, job=job))
        rows[f"shared|job{job}|busy"] = _sha(
            repr(list(net.pool.job_busy_seconds(job).items())))
    rows["shared|busy_seconds"] = _sha(
        repr(list(net.pool.busy_seconds().items())))

    # rank-0 packages (a 1-D vector, a row and a column) run dense
    config = _powersgd(4)
    plan = [(Package(name, (LayerInfo(name, 4096, shape),),
                     config.compression), offset)
            for name, shape, offset in (("bias", (4096,), 0.0),
                                        ("row", (1, 4096), 1e-3),
                                        ("column", (4096, 1), 2e-3))]
    rows["rank0|4"] = _hex_replay(perf.replay_step(
        Network(machine.topology(4), get_backend("shm")), list(range(4)),
        plan, config, rank_scale=[1.0, 1.0, 1.5, 1.0]))
    return rows


def replay_overlapped_step() -> dict:
    machine, spec = get_machine("rtx3090-8x"), build_spec("vgg16")
    config = CGXConfig.cgx_default()
    packages = perf.plan_step_packages(spec, config, "cgx")
    compute = machine.gpu.step_compute_time(
        spec, machine.gpu.max_batch_per_gpu(spec))
    ready = perf.package_ready_offsets(spec, config, compute, packages)
    position = {t.name: i for i, t in enumerate(spec.tensors)}
    buckets = [TimedBucket(pkg.name, pkg.numel, pkg.spec, offset,
                           min(position[layer.name] for layer in pkg.layers),
                           i)
               for i, (pkg, offset) in enumerate(zip(packages, ready))]
    net = Network(machine.topology(), get_backend(config.backend))
    timing = time_overlapped_step(net, list(range(machine.n_gpus)), buckets,
                                  compute_end=compute)
    return {"intervals": _sha(repr([(name, a.hex(), b.hex())
                                    for name, a, b in timing.intervals])),
            "overlapped_end": timing.overlapped_end.hex(),
            "sequential_end": timing.sequential_end.hex(),
            "wire_bytes": timing.wire_bytes,
            "kernel_calls": timing.kernel_calls}


def replay_faulty_step() -> dict:
    """A ``lossy-link`` step past step 3, where 0 -> 1 runs at half speed."""
    machine, spec = get_machine("dgx1"), build_spec("resnet50")
    runtime = PlanRuntime(make_campaign("lossy-link", world=4, seed=SEED))
    runtime.advance(5)
    assert runtime.faults().link_slow_factor(0, 1) != 1.0
    topology = machine.topology(4)
    timing = perf.simulate_step(
        spec, machine.gpu, topology, CGXConfig.cgx_default(),
        network=FaultyNetwork(topology, "shm", runtime))
    counters = runtime.counters
    return {"step_time": timing.step_time.hex(),
            "wire_bytes": timing.wire_bytes,
            "retries": counters.retries,
            "retransmit_bytes": counters.retransmit_bytes,
            "forced_deliveries": counters.forced_deliveries,
            "log": _sha(runtime.log_bytes())}


def _scheme_ranks(node_of) -> list[int]:
    """GPU per rank on the 2-node rtx3090-8x cluster: rank ``r`` takes the
    next free GPU of node ``node_of[r]`` (node 0 when unplaced)."""
    taken = [0, 0]
    ranks = []
    for node in node_of:
        ranks.append(8 * node + taken[node])
        taken[node] += 1
    return ranks


def _scheme_ready(cell) -> list[float]:
    """Staggered ready times; a quorum row's participants are ready first
    (in reverse rank order, so the earliest-ready member is not the
    lowest rank), then its laggards."""
    world = cell.world
    if cell.participants is None:
        return [1e-4 * ((5 * rank + 2) % 7) for rank in range(world)]
    late = [r for r in range(world) if r not in cell.participants]
    order = [*reversed(cell.participants), *reversed(late)]
    ready = [0.0] * world
    for position, rank in enumerate(order):
        ready[rank] = 1e-4 * (position + 1)
    return ready


def replay_schemes() -> dict:
    """Every scheme's timed schedule, pinned bit-for-bit: per run the end
    times, the accounting, and the pool's resources in creation order
    with their audit ledgers."""
    cells = [*scheme_cells(SCHEME_WORLDS), *EXPLICIT_CELLS,
             *SINGLE_MEMBER_CELLS.values()]
    rows = {}
    for cell in cells:
        ranks = _scheme_ranks(cell.node_of or (0,) * cell.world)
        ready = _scheme_ready(cell)
        for name, spec in SCHEME_SPECS.items():
            for streams in (1, 2):
                for factor in (1.0, 2.0):
                    if cell.scheme == "partial" and factor != 1.0:
                        continue  # the quorum reducer has no kernel factor
                    net = Network(make_cluster("rtx3090-8x", 2))
                    net.enable_conservation_audit()
                    if cell.scheme == "partial":
                        timing = time_partial_allreduce(
                            net, ranks, SCHEME_NUMEL, spec,
                            len(cell.participants), ready,
                            chunk_streams=streams)
                    else:
                        timing = time_allreduce(
                            net, ranks, SCHEME_NUMEL, spec, cell.scheme,
                            ready=ready, chunk_streams=streams,
                            kernel_factor=factor, job=3)
                    pool = net.pool
                    key = (f"{cell.scheme}|{cell.world}|{cell.node_of}|"
                           f"{cell.participants}|{name}|{streams}|{factor}")
                    rows[key] = {
                        "end_times": [t.hex() for t in timing.end_times],
                        "wire_bytes": timing.wire_bytes,
                        "kernel_calls": timing.kernel_calls,
                        "busy_seconds": _sha(
                            repr(list(pool.busy_seconds().items()))),
                        "ledgers": _sha(repr(
                            [(res_name, res.audit_ledger())
                             for res_name, res in pool.resources().items()])),
                    }
    return rows


def replay_all() -> dict:
    """Everything the fixture records (the recorder dumps this as JSON)."""
    record = {f"campaign|{name}": replay_campaign(name) for name in CAMPAIGNS}
    record["link_loads|packed"] = replay_link_loads()
    record["ledgers|packed"] = replay_ledgers()
    record["steps"] = replay_steps()
    record["powersgd"] = replay_powersgd()
    record["overlapped_step|vgg16"] = replay_overlapped_step()
    record["faulty_step|lossy-link"] = replay_faulty_step()
    record["schemes"] = replay_schemes()
    return record


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_fleet_campaign_replays_the_parent(name, recorded):
    assert replay_campaign(name) == recorded[f"campaign|{name}"]


def test_link_loads_and_ledgers_replay_the_parent(recorded):
    assert replay_link_loads() == recorded["link_loads|packed"]
    assert replay_ledgers() == recorded["ledgers|packed"]


def test_simulated_steps_replay_the_parent(recorded):
    assert replay_steps() == recorded["steps"]
    assert replay_overlapped_step() == recorded["overlapped_step|vgg16"]


def test_powersgd_steps_replay_the_parent(recorded):
    assert replay_powersgd() == recorded["powersgd"]


def test_scheme_schedules_replay_the_parent(recorded):
    assert replay_schemes() == recorded["schemes"]


def test_faulty_network_step_replays_the_parent(recorded):
    assert replay_faulty_step() == recorded["faulty_step|lossy-link"]
