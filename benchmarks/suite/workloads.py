"""The five workloads: seeded inputs in, timed ops and verdicts out.

A workload is built (inputs generated, programs constructed), warmed up
with one op per configuration, and then asked for rounds.  A round is a
fixed list of ops; :meth:`Workload.round` yields one :class:`Segment` per
group of same-kind ops with the wall seconds of the ops alone — checks run
after the clock stops.  Rounds repeat until the run's ``--seconds`` are
used, so everything that must repeat bit-for-bit (``model.*``, the
``*_per_op`` counts) is taken from a fixed round, never from the total.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

import checks
import inputs
import layers

__all__ = ["Segment", "Workload", "WORKLOADS", "make"]

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"))
clock = time.perf_counter


@dataclass
class Segment:
    """Same-kind ops timed together."""

    kind: str
    ops: int
    seconds: float
    failed: int = 0


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: rounds that always run: exact metrics are read at the end of the
    #: last of them, and a traced run spends exactly these untraced first
    min_rounds = 1

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.tally = checks.Tally()
        #: failed checks made once per run, across ops; one failed op each
        self.run_level_failures = 0
        #: exact metrics remembered from round 1
        self.first: dict[str, float] = {}

    def warm_up(self) -> None:
        """One op per configuration, so caches and lazy imports are paid."""
        for _ in self.round(-1):
            pass

    def round(self, index: int):
        raise NotImplementedError

    def layer_matrix(self) -> dict[str, float]:
        """Per-layer microbenchmarks run once, before a traced run."""
        return {}

    def instrument(self, tracer) -> None:
        """The traced phase starts now (wrappers are installed)."""

    def exact_metrics(self) -> dict[str, float]:
        """Run-level checks into the tally; seed-deterministic outputs."""
        return dict(self.first)

    def layer_metrics(self, tracer, wall: float) -> dict[str, float]:
        """Workload-specific per-layer numbers from the traced phase."""
        return {}


# -- 1. reduce_qsgd ------------------------------------------------------------

class ReduceQsgd(Workload):
    """op = one gradient exchange through the engine (paper-default CGX)."""

    name = "reduce_qsgd"
    min_rounds = 2

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        from repro.core import CGXConfig, CommunicationEngine, LayerInfo

        self.inventory = inputs.gradient_inventory(scale)
        self.grads = inputs.worker_gradients(seed, self.inventory)
        self.engine = CommunicationEngine(CGXConfig.cgx_default())
        self.exact = {
            name: np.mean([g[name].astype(np.float64) for g in self.grads],
                          axis=0)
            for name, _ in self.inventory}
        self.compressed = [
            name for name, shape in self.inventory
            if not self.engine.filter.excluded(
                LayerInfo(name, int(np.prod(shape)), shape))]

    def round(self, index: int):
        wire = None
        for k, kind in enumerate(("reduce", "reduce_overlapped")):
            rng = np.random.default_rng([self.seed, 202, index + 1, k])
            call = getattr(self.engine, kind)
            start = clock()
            outputs, report = call(self.grads, rng)
            seconds = clock() - start
            error = checks.relative_error(outputs[0], self.exact,
                                          self.compressed)
            ok = self.tally.record("reduce.replicas_bit_identical",
                                   checks.replicas_identical(outputs))
            ok &= self.tally.record(
                "reduce.rel_error_below_0.35", error < checks.REL_ERROR_MAX,
                f"relative L2 error {error:.4f}")
            if wire is not None:
                ok &= self.tally.record(
                    "reduce.wire_bytes_equal_across_paths",
                    report.wire_bytes == wire,
                    f"{report.wire_bytes} != {wire}")
            wire = report.wire_bytes
            if index == 0:
                self._remember(kind, report, error)
            yield Segment(kind, 1, seconds, 0 if ok else 1)

    def _remember(self, kind: str, report, error: float) -> None:
        first = self.first
        first["core.engine.packages_per_op"] = \
            first.get("core.engine.packages_per_op", 0) + report.packages / 2
        if kind == "reduce":
            first["model.reduce.rel_error"] = error
            first["model.reduce.wire_ratio"] = report.compression_ratio
            first["collectives.wire_mb_per_op"] = report.wire_bytes / 1e6
        else:
            first["core.overlap.buckets_per_op"] = len(report.buckets)

    def layer_matrix(self) -> dict[str, float]:
        return layers.reduce_matrix(self.seed, self.scale)


# -- 2. train_steps --------------------------------------------------------------

class TrainSteps(Workload):
    """op = one ``DataParallelTrainer.train_step()``, world 4."""

    name = "train_steps"
    min_rounds = 3

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.specs = inputs.train_specs(scale)
        self.trainers = {spec.name: self._build(spec) for spec in self.specs}
        self.step_times = {spec.name: array("d") for spec in self.specs}
        self.gate: dict[str, float] = {}    # loss at end of the last fixed round
        self.gate_retries = 0
        self.gate_steps = 0
        self.steps_done = {spec.name: 0 for spec in self.specs}

    def _build(self, spec: inputs.TrainSpec):
        from repro.compression import CompressionSpec
        from repro.core import CGXConfig
        from repro.faults import make_campaign
        from repro.training import DataParallelTrainer, get_recipe, make_task

        recipe = get_recipe(spec.family)
        task = make_task(spec.family, batch_size=recipe.batch_size,
                         data_seed=self.seed, **recipe.kwargs())
        config = {
            "none": CGXConfig(compression=CompressionSpec("none")),
            "qsgd4": CGXConfig.cgx_default(recipe.bucket_size),
            "topk_ef": CGXConfig(compression=CompressionSpec(
                "topk", density=0.05, error_feedback=True)),
        }[spec.compression]
        plan = (make_campaign("lossy-link", world=inputs.WORLD, seed=self.seed)
                if spec.lossy else None)
        return DataParallelTrainer(task, world_size=inputs.WORLD,
                                   config=config, recipe=recipe,
                                   seed=self.seed, fault_plan=plan,
                                   overlap=spec.overlap)

    def round(self, index: int):
        for spec in self.specs:
            trainer = self.trainers[spec.name]
            steps = 1 if index < 0 else spec.steps_per_round
            times = self.step_times[spec.name]
            seconds, failed, loss = 0.0, 0, float("nan")
            for _ in range(steps):
                start = clock()
                loss = trainer.train_step()
                elapsed = clock() - start
                seconds += elapsed
                times.append(elapsed)
                if not self.tally.record("train.loss_finite",
                                         bool(np.isfinite(loss)),
                                         f"{spec.name}: loss {loss}"):
                    failed += 1
            self.steps_done[spec.name] += steps
            if not self.tally.record("train.replicas_in_sync",
                                     trainer.in_sync(), spec.name):
                failed = steps
            if index == self.min_rounds - 1:
                self.gate[spec.name] = loss
                if spec.lossy:
                    self.gate_retries = trainer.fault_runtime.counters.retries
                    self.gate_steps = self.steps_done[spec.name]
            yield Segment(spec.name, steps, seconds, failed)

    def instrument(self, tracer) -> None:
        for times in self.step_times.values():
            del times[:]
        for spec in self.specs:
            trainer = self.trainers[spec.name]
            family = spec.family
            tracer.wrap_attr(trainer.task, "loss_and_grad",
                             f"nn.loss.{family}", "nn")
            for replica in trainer.replicas:
                tracer.wrap_attr(replica, "forward", f"nn.forward.{family}", "nn")
                tracer.wrap_attr(replica, "backward", f"nn.backward.{family}", "nn")
            for optimizer in trainer.optimizers:
                tracer.wrap_attr(optimizer, "step", "nn.optimizer_step", "nn")

    def exact_metrics(self) -> dict[str, float]:
        gate = self.gate
        clean, lossy, fp32 = (gate["mlp_qsgd4"], gate["mlp_qsgd4_lossy"],
                              gate["mlp_none"])
        gap = abs(clean - fp32)
        passed = self.tally.record(
            "train.lossy_link_loss_equals_clean",
            lossy == clean and self.gate_retries > 0,
            f"lossy {lossy!r} vs clean {clean!r}, {self.gate_retries} retries")
        passed += self.tally.record("train.qsgd4_loss_gap_below_0.02",
                                    gap < checks.LOSS_GAP_MAX, f"gap {gap}")
        self.run_level_failures = 2 - passed
        return {
            "model.train.loss_final.mlp_qsgd4": clean,
            "model.train.loss_final.bert_qsgd4": gate["bert_qsgd4"],
            "model.train.loss_gap_vs_fp32.mlp": gap,
            "faults.retries_per_op": self.gate_retries / self.gate_steps,
        }

    def layer_metrics(self, tracer, wall: float) -> dict[str, float]:
        p50 = {name: 1e3 * statistics.median(times)
               for name, times in self.step_times.items() if len(times)}
        out = {f"training.trainer.step_ms_p50.{name}": value
               for name, value in p50.items()}
        out["faults.lossy_step_overhead"] = \
            p50["mlp_qsgd4_lossy"] / p50["mlp_qsgd4"] - 1.0
        fwd_bwd = [f"nn.{part}.{family}" for part in ("forward", "loss", "backward")
                   for family in ("mlp", "bert")]
        out["nn.fwd_bwd_share"] = tracer.total(*fwd_bwd) / wall
        out["nn.optimizer_share"] = tracer.total("nn.optimizer_step") / wall
        for family in ("mlp", "bert"):
            out[f"nn.fwd_bwd_ms_p50.{family}"] = 1e3 * sum(
                tracer.p50(f"nn.{part}.{family}")
                for part in ("forward", "loss", "backward"))
        return out


# -- 3. paper_sweep --------------------------------------------------------------

class PaperSweep(Workload):
    """op = one simulated training step (Fig. 3, Table 5, overlap rows)."""

    name = "paper_sweep"
    min_rounds = 3

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        from repro.cluster import get_machine, make_cluster
        from repro.core import CGXConfig, qnccl_config
        from repro.models import build_spec

        self.models = inputs.sweep_models(scale)
        self.specs = {model: build_spec(model) for model in self.models}
        self.machines = {name: get_machine(name)
                         for name in inputs.SWEEP_MACHINES}
        self.methods = {"nccl": (CGXConfig.baseline_nccl(), "fused"),
                        "qnccl": (qnccl_config(), "fused"),
                        "cgx": (CGXConfig.cgx_default(), "cgx")}
        self.fig3_cells = {
            model: inputs.shuffled(
                [(machine, gpus, method) for machine in inputs.SWEEP_MACHINES
                 for gpus in inputs.SWEEP_GPUS for method in self.methods],
                seed, tag=i)
            for i, model in enumerate(self.models)}
        self.clusters = {nodes: make_cluster("rtx3090-8x", nodes)
                         for nodes in (2, 4)}
        self.hier_config = CGXConfig.cgx_default()
        self.hier_config.scheme = "hier"
        self.hier_cells = inputs.shuffled(
            [(model, nodes) for model in self.models for nodes in (2, 4)],
            seed, tag=100)
        self.overlap_configs = {}
        for scheme in ("sra", "ring"):
            config = CGXConfig.cgx_default()
            config.scheme = scheme
            self.overlap_configs[scheme] = config
        self.overlap_cells = inputs.shuffled(
            [(model, scheme) for model in inputs.OVERLAP_MODELS
             if model in self.models for scheme in self.overlap_configs],
            seed, tag=101)
        self.reference: dict[tuple, float] | None = None

    def _overlapped_step(self, model: str, scheme: str):
        """Overlapped vs sequential drain of the CGX bucket plan (the
        legacy bench_overlap cell, through public functions only)."""
        from repro.cluster import Network, get_backend
        from repro.collectives import TimedBucket, time_overlapped_step
        from repro.training import perf

        machine = self.machines["rtx3090-8x"]
        spec, config = self.specs[model], self.overlap_configs[scheme]
        packages = perf.plan_step_packages(spec, config, "cgx")
        batch = machine.gpu.max_batch_per_gpu(spec)
        compute = machine.gpu.step_compute_time(spec, batch)
        ready = perf.package_ready_offsets(spec, config, compute, packages)
        forward_pos = {t.name: i for i, t in enumerate(spec.tensors)}
        buckets = [
            TimedBucket(name=pkg.name, numel=pkg.numel, spec=pkg.spec,
                        ready=offset, min_index=i,
                        first_needed=min(forward_pos[layer.name]
                                         for layer in pkg.layers))
            for i, (pkg, offset) in enumerate(zip(packages, ready))]
        net = Network(machine.topology(), get_backend(config.backend))
        return time_overlapped_step(net, list(range(machine.n_gpus)), buckets,
                                    scheme=scheme, compute_end=compute)

    def round(self, index: int):
        from repro.training import perf

        results: dict[tuple, object] = {}
        for model in self.models:
            spec = self.specs[model]
            cells = self.fig3_cells[model][:3] if index < 0 \
                else self.fig3_cells[model]
            start = clock()
            for machine, gpus, method in cells:
                config, plan_mode = self.methods[method]
                results[(model, machine, gpus, method)] = \
                    perf.simulate_machine_step(self.machines[machine], spec,
                                               config, n_gpus=gpus,
                                               plan_mode=plan_mode)
            yield Segment(f"fig3.{model}", len(cells), clock() - start)
        gpu = self.machines["rtx3090-8x"].gpu
        start = clock()
        for model, nodes in self.hier_cells:
            results[("hier", model, nodes)] = perf.simulate_step(
                self.specs[model], gpu, self.clusters[nodes], self.hier_config)
        yield Segment("hier", len(self.hier_cells), clock() - start)
        start = clock()
        for model, scheme in self.overlap_cells:
            results[("overlap", model, scheme)] = \
                self._overlapped_step(model, scheme)
        seconds = clock() - start
        failed = 0 if index < 0 else self._check_round(index, results)
        yield Segment("overlap", len(self.overlap_cells), seconds, failed)

    def _check_round(self, index: int, results: dict) -> int:
        """Modelled outputs repeat exactly; Fig. 3's headline holds."""
        times = {key: (r.overlapped_end if key[0] == "overlap" else r.step_time)
                 for key, r in results.items()}
        if self.reference is None:
            self.reference = times
            self._remember(results, times)
        slow = 0
        for model in self.models:
            nccl = results[(model, "rtx3090-8x", 8, "nccl")]
            cgx = results[(model, "rtx3090-8x", 8, "cgx")]
            ratio = cgx.throughput / nccl.throughput
            if not self.tally.record(
                    "sweep.cgx_1.8x_nccl_on_3090x8",
                    ratio >= checks.CGX_SPEEDUP_MIN, f"{model}: {ratio:.2f}x"):
                slow += 2   # the nccl and the cgx step of that model
        if not self.tally.record("sweep.round_equals_round_1",
                                 times == self.reference,
                                 f"round {index + 1} differs"):
            return len(results)
        return slow

    def _remember(self, results: dict, times: dict) -> None:
        mean = statistics.fmean
        keys = sorted(times, key=str)
        box = [(results[(m, "rtx3090-8x", 8, "nccl")],
                results[(m, "rtx3090-8x", 8, "cgx")]) for m in self.models]
        self.first = {
            "model.sweep.sim_step_ms_mean":
                1e3 * mean(times[k] for k in keys),
            "model.sweep.cgx_scaling_eff_3090x8":
                mean(cgx.scaling_efficiency for _, cgx in box),
            "model.sweep.nccl_scaling_eff_3090x8":
                mean(nccl.scaling_efficiency for nccl, _ in box),
            "model.sweep.cgx_speedup_3090x8":
                mean(cgx.throughput / nccl.throughput for nccl, cgx in box),
            "model.sweep.hier_step_ms_mean":
                1e3 * mean(times[k] for k in keys if k[0] == "hier"),
        }
        overlap = [results[k].overlap_ratio for k in keys if k[0] == "overlap"]
        if overlap:
            self.first["model.sweep.overlap_speedup_mean"] = mean(overlap)

    def layer_matrix(self) -> dict[str, float]:
        return layers.build_spec_matrix(self.models)


# -- 4. fleet_200 ----------------------------------------------------------------

class Fleet200(Workload):
    """op = one job-step of a 200-job fleet campaign on 4 nodes."""

    name = "fleet_200"
    min_rounds = 1

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        from repro.cluster import make_cluster

        self.jobs = inputs.fleet_jobs(seed, scale)
        self.topologies = {
            name: make_cluster(machine, inputs.FLEET_NODES)
            for name, (machine, *_rest) in inputs.FLEET_CAMPAIGNS.items()}
        self.reference: dict[str, str] = {}
        self.first["sched.log_bytes"] = 0
        self.run_times = {name: array("d") for name in inputs.FLEET_CAMPAIGNS}

    def _simulator(self, name: str, jobs, **options):
        from repro.sched import FleetSimulator

        _machine, gpu, policy, routing = inputs.FLEET_CAMPAIGNS[name]
        return FleetSimulator(self.topologies[name], jobs, gpu=gpu,
                              policy=policy, routing=routing, seed=self.seed,
                              **options)

    def round(self, index: int):
        import repro.sched as sched

        for name in inputs.FLEET_CAMPAIGNS:
            # the warm-up campaign is the first eight jobs only
            jobs = self.jobs[:8] if index < 0 else self.jobs
            start = clock()
            result = self._simulator(name, jobs).run()
            ran = clock()
            metrics = sched.compute_metrics(result)
            seconds = clock() - start
            steps = sum(1 for r in result.records if r["event"] == "step")
            if index < 0:
                continue
            self.run_times[name].append(ran - start)
            log = result.log_bytes()
            ok = self.tally.record(
                "fleet.all_jobs_completed_fairness_valid",
                *checks.fleet_campaign_ok(metrics, len(jobs)))
            digest = checks.digest(log)
            ok &= self.tally.record(
                "fleet.log_sha256_equals_round_1",
                self.reference.setdefault(name, digest) == digest,
                f"{name} round {index + 1}")
            if index == 0:
                self._remember(name, metrics, log)
            yield Segment(f"campaign.{name}", steps, seconds,
                          0 if ok else steps)

    def _remember(self, name: str, metrics, log: bytes) -> None:
        first = self.first
        first["sched.log_bytes"] += len(log)
        first[f"model.fleet.makespan_s.{name}"] = metrics.makespan
        if name == "packed":
            first["model.fleet.fairness.packed"] = metrics.fairness
            first["model.fleet.mean_queue_wait_s.packed"] = \
                metrics.mean_queue_wait
            first["model.fleet.wire_gb.packed"] = \
                metrics.total_wire_bytes / 1e9

    def instrument(self, tracer) -> None:
        for times in self.run_times.values():
            del times[:]

    def layer_matrix(self) -> dict[str, float]:
        """Cost of link-load binning on the packed campaign."""
        seconds = {}
        for label, options in (("plain", {}), ("binned", {"link_load_bin": 0.01})):
            start = clock()
            self._simulator("packed", self.jobs, **options).run()
            seconds[label] = clock() - start
        return {"cluster.link_load_overhead_share":
                seconds["binned"] / seconds["plain"] - 1.0}

    def layer_metrics(self, tracer, wall: float) -> dict[str, float]:
        return {f"sched.campaign_s.{name}": statistics.median(times)
                for name, times in self.run_times.items() if len(times)}


# -- 5. certify ------------------------------------------------------------------

class Certify(Workload):
    """op = one certification unit (an analysis pass, or one sched cell)."""

    name = "certify"
    min_rounds = 1

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.cells = inputs.certify_cells(scale)
        self.units = inputs.shuffled(self._units(), seed, tag=5)
        self.unit_times: dict[str, list[float]] = {u[1]: [] for u in self.units}
        self.untraced_times: dict[str, list[float]] | None = None
        self.findings = 0

    def _units(self) -> list[tuple[str, str, object]]:
        """(pass, unit kind, callable) — callables resolve the verifier by
        module attribute at call time, so traced wrappers are picked up."""
        import repro.faults.validate as validate
        from repro.analysis import (contracts, elastic, health, liveness,
                                    overlap, plans, races, rules, schedule,
                                    shapes)
        from repro.analysis import sched as a_sched

        light = [
            ("schedule", "schedule", lambda: schedule.verify_schedules()),
            ("contracts", "contracts", lambda: (
                contracts.verify_contracts() + validate.verify_crc_detection()
                + validate.verify_fault_determinism())),
            ("races", "races", lambda: (races.verify_races()
                                        + validate.verify_fault_schedules())),
            ("sched", "sched.tag_lint", lambda: a_sched.lint_job_tagging()),
        ]
        heavy = [
            ("lint", "lint", lambda: rules.run_lint([SRC_DIR])),
            ("plans", "plans", lambda: plans.verify_plans()),
            ("shapes", "shapes", lambda: shapes.verify_shapes()),
            ("health", "health", lambda: (health.verify_detection_latency()
                                          + health.verify_store_crash_safety())),
            ("liveness", "liveness", lambda: liveness.verify_liveness()),
            ("overlap", "overlap", lambda: overlap.verify_overlap(worlds=(2,))),
            ("elastic", "elastic", lambda: (elastic.verify_drain_protocol()
                                            + elastic.verify_respec_feasibility())),
        ]
        cells = [
            ("sched", f"sched.{c.policy}-{c.routing}-n{c.n_jobs}-{c.name}",
             lambda c=c: a_sched.verify_sched(cases=[c], with_tag_lint=False))
            for c in self.cells]
        return light + (heavy if self.scale >= 1.0 else []) + cells

    def warm_up(self) -> None:
        """The two cheapest units: imports and AST caches, not a full round."""
        for _pass, kind, unit in self.units:
            if kind in ("schedule", "sched.tag_lint"):
                unit()

    def round(self, index: int):
        for _pass, kind, unit in self.units:
            start = clock()
            findings = unit()
            seconds = clock() - start
            self.unit_times[kind].append(seconds)
            if index == 0:
                self.findings += len(findings)
            ok = self.tally.record(
                "certify.unit_returns_no_findings", findings == [],
                f"{kind}: {len(findings)} findings")
            yield Segment(kind, 1, seconds, 0 if ok else 1)

    def instrument(self, tracer) -> None:
        self.untraced_times = {k: list(v) for k, v in self.unit_times.items()}

    def exact_metrics(self) -> dict[str, float]:
        return {"analysis.units": len(self.units),
                "analysis.findings": self.findings}

    def layer_metrics(self, tracer, wall: float) -> dict[str, float]:
        """Per-pass seconds from the untraced rounds (op-granular, so no
        wrapper overhead is in them)."""
        median = {kind: statistics.median(times)
                  for kind, times in (self.untraced_times or {}).items()
                  if times}
        out: dict[str, float] = {}
        for pass_name, kind, _unit in self.units:
            key = f"analysis.{pass_name}.s"
            out[key] = out.get(key, 0.0) + median.get(kind, 0.0)
        cell_seconds = sum(v for k, v in median.items()
                           if k.startswith("sched.") and k != "sched.tag_lint")
        jobs = sum(case.n_jobs for case in self.cells)
        out["analysis.sched.certify_ms_per_job"] = 1e3 * cell_seconds / jobs
        run = tracer.total("analysis.run_fleet_case")
        certify = tracer.total("analysis.certify_fleet")
        if run + certify > 0:
            out["analysis.sched.run_share"] = run / (run + certify)
        return out


WORKLOADS = {cls.name: cls for cls in
             (ReduceQsgd, TrainSteps, PaperSweep, Fleet200, Certify)}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    return WORKLOADS[name](seed, scale)
