"""Command-line interface: ``python -m repro <command>``.

Three commands cover the common workflows:

* ``simulate`` — step-time/throughput of a model on a machine under a
  method (the Figure 1/3 axes, one point at a time);
* ``train`` — a real compressed data-parallel training run of a scaled
  model family (the Table 3 axis);
* ``topology`` — render a machine's interconnect (Figure 8);
* ``experiment`` — regenerate one of the paper's tables/figures by
  running its benchmark (``--list`` enumerates them);
* ``analyze`` — static analysis: numerical-safety lint + collective-
  schedule verification (see ``docs/analysis.md``);
* ``sched`` — run a multi-tenant fleet: N concurrent training jobs
  placed onto one shared simulated cluster, reporting fleet
  throughput, queueing delay and Jain fairness.

Examples::

    python -m repro simulate --model transformer_xl --machine rtx3090-8x \\
        --method cgx --gpus 8
    python -m repro train --family mlp --world 4 --bits 4 --steps 80
    python -m repro topology --machine rtx3090-8x
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cluster import MACHINES, get_machine
from repro.compression import CompressionSpec
from repro.core import CGXConfig
from repro.core.qnccl import qnccl_config
from repro.models import available_specs, build_spec
from repro.sched.placement import PLACEMENT_POLICIES

__all__ = ["main", "build_parser"]

METHODS = ("nccl", "qnccl", "cgx", "powersgd", "grace")

#: QSGD widths the compressor accepts
BITS = range(2, 9)


def _number(kind: type, low: float, strict: bool = False):
    """An argparse type: a ``kind`` value >= ``low`` (> ``low`` when
    ``strict``), so an out-of-range number is a usage error."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__   # argparse says "invalid int value"
    return parse


_positive_int = _number(int, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CGX reproduction: simulate, train, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one training step")
    sim.add_argument("--model", required=True, choices=available_specs())
    sim.add_argument("--machine", required=True, choices=sorted(MACHINES))
    sim.add_argument("--method", default="cgx", choices=METHODS)
    sim.add_argument("--gpus", type=int, default=None)
    sim.add_argument("--bits", type=int, default=4, choices=BITS)
    sim.add_argument("--bucket-size", type=_positive_int, default=128)
    sim.add_argument("--scheme", default=None,
                     help="override reduction scheme (sra/ring/tree/...)")
    sim.add_argument("--config", default=None,
                     help="JSON config file (overrides --method/--bits)")

    train = sub.add_parser("train", help="run a scaled accuracy experiment")
    train.add_argument("--family", required=True)
    train.add_argument("--world", type=_positive_int, default=4)
    train.add_argument("--bits", type=int, default=4, choices=BITS)
    train.add_argument("--bucket-size", type=_positive_int, default=None)
    train.add_argument("--steps", type=_positive_int, default=None)
    train.add_argument("--baseline", action="store_true",
                       help="train uncompressed instead")
    train.add_argument("--adaptive", default=None,
                       choices=("kmeans", "bayes", "linear"))
    train.add_argument("--seed", type=int, default=0)

    topo = sub.add_parser("topology", help="describe a machine")
    topo.add_argument("--machine", required=True, choices=sorted(MACHINES))
    topo.add_argument("--gpus", type=int, default=None)

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure")
    exp.add_argument("name", nargs="?", default=None,
                     help="experiment id, e.g. fig3 or table7")
    exp.add_argument("--list", action="store_true", dest="list_all",
                     help="list available experiments")

    # every argument after ``analyze`` goes to repro.analysis.cli.main
    # untouched (see main): its parser is the only one declaring them
    sub.add_parser("analyze", add_help=False,
                   help="run the static-analysis suite (flags: "
                        "python -m repro analyze --help)")

    flt = sub.add_parser("faults",
                         help="run a named chaos campaign against real "
                              "compressed training")
    flt.add_argument("campaign", nargs="?", default=None,
                     help="campaign name (straggler, lossy-link, "
                          "crash-rejoin, spot-churn, autoscale-burst)")
    flt.add_argument("--list", action="store_true", dest="list_all",
                     help="list available campaigns")
    flt.add_argument("--family", default="mlp",
                     help="model family to train under faults")
    flt.add_argument("--world", type=int, default=4)
    flt.add_argument("--steps", type=_positive_int, default=30)
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument("--bits", type=int, default=4, choices=BITS)
    flt.add_argument("--no-crc", action="store_true",
                     help="disable CRC checks (corruptions are delivered)")
    flt.add_argument("--strict", action="store_true",
                     help="fail the run when a retry budget is exhausted")
    flt.add_argument("--log", default=None,
                     help="write the canonical fault event log (JSON) here")
    flt.add_argument("--supervised", action="store_true",
                     help="recover via the heartbeat-driven supervisor "
                          "(observations only) instead of the plan oracle")
    flt.add_argument("--checkpoint-dir", default=None,
                     help="durable checkpoint store directory "
                          "(supervised mode; enables escalation restore)")
    flt.add_argument("--keep", type=int, default=3,
                     help="checkpoints retained in the store (default 3)")

    sch = sub.add_parser("sched",
                         help="run a multi-tenant fleet of concurrent "
                              "training jobs on one shared cluster")
    sch.add_argument("--jobs", type=_positive_int, default=24,
                     help="number of jobs in the seeded workload")
    sch.add_argument("--machine", default="rtx3090-8x",
                     choices=sorted(MACHINES))
    sch.add_argument("--nodes", type=_positive_int, default=2,
                     help="identical machines joined by Ethernet")
    sch.add_argument("--policy", default="packed",
                     choices=PLACEMENT_POLICIES, help="placement policy")
    sch.add_argument("--routing", default="static",
                     choices=("static", "adaptive"))
    sch.add_argument("--seed", type=int, default=0,
                     help="workload seed (same seed = same fleet, byte "
                          "for byte)")
    sch.add_argument("--mean-interarrival", type=_number(float, 0, True),
                     default=0.05,
                     help="mean seconds between job arrivals")
    sch.add_argument("--models", default=None,
                     help="comma-separated model specs for the workload "
                          "mix")
    sch.add_argument("--worlds", default="2,4,8",
                     help="comma-separated world sizes to draw from")
    sch.add_argument("--log", default=None,
                     help="write the canonical fleet event log here")
    sch.add_argument("--trace", default=None,
                     help="write a Chrome/Perfetto trace with per-job "
                          "lanes here")
    sch.add_argument("--link-load-bin", type=_number(float, 0),
                     default=0.0,
                     help="track per-link load timelines in bins of this "
                          "width (seconds)")
    sch.add_argument("--json", action="store_true", dest="as_json",
                     help="print fleet metrics as JSON instead of text")
    return parser


def _method_setup(args) -> tuple[CGXConfig, str]:
    """(config, plan_mode) for a simulate method."""
    if args.method == "nccl":
        return CGXConfig.baseline_nccl(), "fused"
    if args.method == "qnccl":
        return qnccl_config(bits=args.bits,
                            bucket_size=args.bucket_size), "fused"
    if args.method == "grace":
        from repro.baselines import grace_config

        return grace_config(bits=args.bits), "fused"
    if args.method == "powersgd":
        # PowerSGD needs error feedback for accuracy (Vogels et al. 2019;
        # enforced by contract rule CON006)
        return CGXConfig(backend="shm", scheme="sra",
                         compression=CompressionSpec("powersgd", rank=4,
                                                     error_feedback=True)), \
            "cgx"
    config = CGXConfig.cgx_default(args.bucket_size)
    config.compression = CompressionSpec("qsgd", bits=args.bits,
                                         bucket_size=args.bucket_size)
    return config, "cgx"


def _cmd_simulate(args, out) -> int:
    from repro.training import simulate_machine_step

    machine = get_machine(args.machine)
    spec = build_spec(args.model)
    if args.config:
        from repro.core.serialization import load_config

        config, mode = load_config(args.config), "cgx"
    else:
        config, mode = _method_setup(args)
    if args.scheme:
        config.scheme = args.scheme
    try:   # the machine refuses a GPU count it does not have
        machine.topology(args.gpus)
    except ValueError as exc:
        print(f"--gpus {args.gpus}: {exc}", file=sys.stderr)
        return 2
    timing = simulate_machine_step(machine, spec, config, n_gpus=args.gpus,
                                   plan_mode=mode)
    print(f"model      {spec.name} "
          f"({spec.num_parameters / 1e6:.1f}M params)", file=out)
    print(f"machine    {machine.name} x{timing.n_gpus} {machine.gpu.name}",
          file=out)
    method_label = args.config or args.method
    print(f"method     {method_label} (scheme={config.scheme}, "
          f"backend={config.backend})", file=out)
    print(f"step time  {timing.step_time * 1000:.1f} ms "
          f"(compute {timing.compute_time * 1000:.1f} ms, "
          f"comm tail {timing.comm_tail * 1000:.1f} ms)", file=out)
    print(f"throughput {timing.throughput:,.0f} {spec.item_unit}/s "
          f"({timing.scaling_efficiency * 100:.0f}% of linear)", file=out)
    print(f"wire       {timing.wire_bytes / 1e6:,.0f} MB/step", file=out)
    return 0


def _cmd_train(args, out) -> int:
    from repro.training import RECIPES, train_family

    if args.family not in RECIPES:
        print(f"unknown family {args.family!r}; "
              f"choose from {sorted(RECIPES)}", file=sys.stderr)
        return 2
    if args.baseline:
        config = None
    else:
        bucket = args.bucket_size or RECIPES[args.family].bucket_size
        config = CGXConfig.cgx_default(bucket)
        config.compression = CompressionSpec("qsgd", bits=args.bits,
                                             bucket_size=bucket)
    result = train_family(args.family, world_size=args.world, config=config,
                          steps=args.steps, adaptive_method=args.adaptive,
                          seed=args.seed)
    label = "baseline" if args.baseline else f"CGX {args.bits}-bit"
    print(f"{args.family} x{args.world} workers ({label}, "
          f"{result.steps} steps)", file=out)
    for record in result.history:
        print(f"  step {record['step']:5d}  loss {record['loss']:.4f}  "
              f"{result.metric_name} {record['metric']:.4g}", file=out)
    print(f"final {result.metric_name}: {result.final_metric:.4g}  "
          f"compression: {result.compression_ratio:.1f}x", file=out)
    return 0


_BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "benchmarks")

#: short ids kept for the two experiments ``--help`` and the tests name
_EXPERIMENT_ALIASES = {"fig3": "fig3-throughput", "table7": "table7-adaptive"}


def _discover_experiments() -> dict[str, str]:
    """experiment id -> benchmark file: every ``benchmarks/bench_*.py``
    under its stem minus ``bench_`` with ``_`` as ``-``, plus the aliases."""
    if not os.path.isdir(_BENCH_DIR):
        return {}
    found = {name[len("bench_"):-len(".py")].replace("_", "-"): name
             for name in os.listdir(_BENCH_DIR)
             if name.startswith("bench_") and name.endswith(".py")}
    found.update({alias: found[target] for alias, target
                  in _EXPERIMENT_ALIASES.items() if target in found})
    return found


EXPERIMENTS = _discover_experiments()


def _cmd_experiment(args, out) -> int:
    if args.list_all or args.name is None:
        print("available experiments:", file=out)
        for name, bench in sorted(EXPERIMENTS.items()):
            print(f"  {name:22s} {bench}", file=out)
        return 0
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; run with --list",
              file=sys.stderr)
        return 2
    import pytest

    print(f"running {EXPERIMENTS[args.name]} "
          f"(results land in benchmarks/results/)", file=out)
    return pytest.main([os.path.join(_BENCH_DIR, EXPERIMENTS[args.name]),
                        "--benchmark-only", "-q", "-s"])


def _cmd_faults(args, out) -> int:
    from repro.faults import CAMPAIGNS, ResiliencePolicy, make_campaign
    from repro.training import RECIPES, train_family

    listing = args.list_all or args.campaign is None
    if not listing and args.campaign not in CAMPAIGNS:
        print(f"unknown campaign {args.campaign!r}; run with --list",
              file=sys.stderr)
        return 2
    try:   # a campaign refuses a world it cannot run at
        plans = [make_campaign(name, world=args.world, seed=args.seed)
                 for name in (sorted(CAMPAIGNS) if listing
                              else [args.campaign])]
    except ValueError as exc:
        print(f"--world {args.world}: {exc}", file=sys.stderr)
        return 2
    if listing:
        print("available campaigns:", file=out)
        for plan in plans:
            kinds = sorted({e.kind for e in plan.events})
            print(f"  {plan.name:14s} {len(plan.events)} event(s): "
                  f"{', '.join(kinds)}", file=out)
        return 0
    if args.family not in RECIPES:
        print(f"unknown family {args.family!r}; "
              f"choose from {sorted(RECIPES)}", file=sys.stderr)
        return 2

    from repro.training.tasks import make_task
    from repro.training.trainer import DataParallelTrainer

    (plan,) = plans
    policy = ResiliencePolicy(crc_check=not args.no_crc, strict=args.strict)
    recipe = RECIPES[args.family]
    bucket = recipe.bucket_size
    config = CGXConfig.cgx_default(bucket)
    config.compression = CompressionSpec("qsgd", bits=args.bits,
                                         bucket_size=bucket)

    baseline = train_family(args.family, world_size=args.world, config=config,
                            steps=args.steps, seed=args.seed,
                            eval_every=max(1, args.steps))
    task = make_task(args.family, batch_size=recipe.batch_size,
                     **recipe.kwargs())
    store = None
    if args.checkpoint_dir:
        from repro.faults import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir, keep=args.keep)
    trainer = DataParallelTrainer(task, world_size=args.world, config=config,
                                  recipe=recipe, seed=args.seed,
                                  fault_plan=plan, policy=policy,
                                  supervised=args.supervised, store=store)
    faulty = trainer.train(steps=args.steps, eval_every=max(1, args.steps))
    runtime = trainer.fault_runtime
    assert runtime is not None

    recovery = "supervised (heartbeat detector)" if args.supervised \
        else "oracle-driven"
    print(f"campaign   {plan.name} (world={plan.world}, seed={plan.seed}, "
          f"{len(plan.events)} event(s)), recovery {recovery}", file=out)
    print(f"training   {args.family} x{args.world}, {args.steps} steps, "
          f"qsgd {args.bits}-bit", file=out)
    print(f"loss       fault-free {baseline.final_loss:.4f}  ->  "
          f"faulty {faulty.final_loss:.4f}", file=out)
    print(f"{baseline.metric_name:10s} "
          f"fault-free {baseline.final_metric:.4g}  ->  "
          f"faulty {faulty.final_metric:.4g}", file=out)
    # FaultCounters field order; every non-zero counter is shown
    for name, value in (faulty.fault_summary or {}).items():
        if value:
            print(f"  {name:22s} {value}", file=out)
    if args.log:
        with open(args.log, "wb") as handle:
            handle.write(runtime.log_bytes())
        print(f"event log  {args.log} ({len(runtime.records)} record(s))",
              file=out)
    return 0


def _cmd_sched(args, out) -> int:
    import json

    from repro.cluster import export_chrome_trace, get_machine, make_cluster
    from repro.sched import FleetSimulator, sample_fleet

    kwargs = {}
    if args.models:
        kwargs["models"] = tuple(args.models.split(","))
        unknown = sorted(set(kwargs["models"]) - set(available_specs()))
        if unknown:
            print(f"unknown model spec(s) {unknown}; "
                  f"choose from {available_specs()}", file=sys.stderr)
            return 2
    try:
        worlds = tuple(int(w) for w in args.worlds.split(","))
    except ValueError:
        print(f"--worlds takes comma-separated integers, got "
              f"{args.worlds!r}", file=sys.stderr)
        return 2
    machine = get_machine(args.machine)
    topology = make_cluster(machine, args.nodes)
    jobs = sample_fleet(args.jobs, seed=args.seed, worlds=worlds,
                        mean_interarrival=args.mean_interarrival, **kwargs)
    sim = FleetSimulator(topology, jobs, gpu=machine.gpu,
                         policy=args.policy, routing=args.routing,
                         seed=args.seed, trace=bool(args.trace),
                         link_load_bin=args.link_load_bin)
    result = sim.run()
    metrics = result.metrics()

    if args.as_json:
        print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        print(f"fleet      {topology.name} ({topology.n_gpus} GPUs), "
              f"policy={args.policy}, routing={args.routing}", file=out)
        print(f"workload   {metrics.n_jobs} jobs, seed={args.seed}, "
              f"completed {metrics.completed}", file=out)
        print(f"makespan   {metrics.makespan:.2f} s", file=out)
        print(f"throughput {metrics.fleet_items_per_s:,.0f} items/s "
              f"({metrics.fleet_steps_per_s:.1f} steps/s)", file=out)
        print(f"queueing   mean {metrics.mean_queue_wait:.3f} s, "
              f"p95 {metrics.p95_queue_wait:.3f} s, "
              f"max {metrics.max_queue_wait:.3f} s", file=out)
        print(f"fairness   {metrics.fairness:.3f} (Jain, over per-job "
              f"efficiency)", file=out)
        print(f"slowdown   mean {metrics.mean_slowdown:.2f}x, "
              f"max {metrics.max_slowdown:.2f}x vs isolated", file=out)
        print(f"wire       {metrics.total_wire_bytes / 1e9:.2f} GB total",
              file=out)
        if metrics.busiest_links:
            busiest = ", ".join(f"{name} ({seconds:.1f}s)"
                                for name, seconds
                                in metrics.busiest_links[:4])
            print(f"hot links  {busiest}", file=out)
    if args.log:
        with open(args.log, "wb") as handle:
            handle.write(result.log_bytes())
        print(f"event log  {args.log} ({len(result.records)} record(s))",
              file=out)
    if args.trace:
        events = export_chrome_trace(result.network, args.trace)
        print(f"trace      {args.trace} ({events} transfer event(s) in "
              f"per-job lanes)", file=out)
    return 0


def _cmd_topology(args, out) -> int:
    machine = get_machine(args.machine)
    try:   # the machine refuses a GPU count it does not have
        topo = machine.topology(args.gpus)
    except ValueError as exc:
        print(f"--gpus {args.gpus}: {exc}", file=sys.stderr)
        return 2
    print(topo.describe(), file=out)
    print(f"\nGPU: {machine.gpu.name} ({machine.gpu.memory_gb} GB, "
          f"GPUDirect: {machine.gpu.gpu_direct})", file=out)
    if machine.price_per_hour:
        print(f"price: ${machine.price_per_hour}/hour", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "analyze":
        from repro.analysis.cli import main as analysis_main

        return analysis_main(rest, out=out)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    commands = {
        "simulate": _cmd_simulate,
        "train": _cmd_train,
        "topology": _cmd_topology,
        "experiment": _cmd_experiment,
        "faults": _cmd_faults,
        "sched": _cmd_sched,
    }
    return commands[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
