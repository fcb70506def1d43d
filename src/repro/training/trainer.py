"""Data-parallel trainer over simulated workers with real compression.

:class:`DataParallelTrainer` runs the full accuracy pipeline: N model
replicas with identical initialization, per-worker batch shards,
backward passes, gradient synchronization through the CGX engine (real
quantization + real reduction scheme), optional global-norm clipping on
the synchronized gradient (Technical Issue 3), optimizer steps, and
periodic evaluation.  The adaptive controller can be attached to retune
per-layer bit-widths during training (Figure 4 / Table 7 experiments).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core import AdaptiveController, CGXConfig, \
    CGXDistributedDataParallel
from repro.faults import (DRAIN_TOLERANCE, CheckpointStore, ElasticCoordinator,
                          FaultPlan, HealthMonitor, HeartbeatTransport,
                          PlanRuntime, ResiliencePolicy, Supervisor,
                          SupervisorDecision, fleet_alpha_scale,
                          inject_data_path, oracle_guard, select_members)
from repro.nn.optim import Adam, SGD, clip_grad_norm

from .recipes import Recipe, get_recipe
from .tasks import Task, make_task

__all__ = ["TrainResult", "DataParallelTrainer", "train_family"]

#: steps between durable checkpoints of a supervised run with a store
CHECKPOINT_EVERY = 5


def _clone_tree(node):
    """Deep-copy every ndarray in a nested snapshot structure."""
    if isinstance(node, np.ndarray):
        return node.copy()
    if isinstance(node, dict):
        return {k: _clone_tree(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_clone_tree(v) for v in node]
    return node


@dataclass
class TrainResult:
    """Outcome of one training run."""

    task: str
    metric_name: str
    final_metric: float
    final_loss: float
    history: list[dict] = field(default_factory=list)
    compression_ratio: float = 1.0
    wire_bytes_total: int = 0
    steps: int = 0
    retries_total: int = 0          # fault-channel retransmissions
    fault_summary: dict | None = None  # FaultCounters.to_dict() of the run

    def metric_trace(self) -> list[tuple[int, float]]:
        return [(h["step"], h["metric"]) for h in self.history]


class DataParallelTrainer:
    """N-replica data-parallel training with CGX synchronization."""

    def __init__(
        self,
        task: Task,
        world_size: int = 4,
        config: CGXConfig | None = None,
        recipe: Recipe | None = None,
        mode: str = "cgx",
        seed: int = 0,
        adaptive: AdaptiveController | None = None,
        fault_plan: FaultPlan | None = None,
        policy: ResiliencePolicy | None = None,
        supervised: bool = False,
        store: CheckpointStore | None = None,
        overlap: bool = False,
    ):
        self.task = task
        self.recipe = recipe or get_recipe(task.name)
        self.config = config or CGXConfig.cgx_default(self.recipe.bucket_size)
        self.world_size = world_size
        self.seed = seed
        self.adaptive = adaptive
        self.replicas = [task.build_model(seed) for _ in range(world_size)]
        self.ddp = CGXDistributedDataParallel(self.replicas, self.config,
                                              mode=mode, seed=seed)
        self.optimizers = [self._make_optimizer(r) for r in self.replicas]
        self._rng = np.random.default_rng(seed + 1)
        self.fault_runtime: PlanRuntime | None = None
        # every fault runtime owns its membership control plane: a plan
        # without preempt_warning/provision events never delivers it a
        # notice, so a fixed world is just the coordinator at rest
        self.elastic: ElasticCoordinator | None = None
        if supervised and fault_plan is None:
            # supervised mode always runs the health loop, even with
            # nothing injected (the zero-false-positive baseline)
            fault_plan = FaultPlan("fault-free", world_size, seed)
        if fault_plan is not None:
            if fault_plan.world != world_size:
                raise ValueError(
                    f"fault plan is for world {fault_plan.world}, "
                    f"trainer has {world_size} workers")
            self.fault_runtime = PlanRuntime(fault_plan, policy)
            self.elastic = ElasticCoordinator(self.fault_runtime, world_size,
                                              supervised=supervised)
        self.supervised = supervised
        self.store = store
        self.heartbeat: HeartbeatTransport | None = None
        self.monitor: HealthMonitor | None = None
        self.supervisor: Supervisor | None = None
        if supervised:
            assert self.fault_runtime is not None
            capacity = self.fault_runtime.plan.max_world
            self.heartbeat = HeartbeatTransport(self.fault_runtime,
                                                world_size,
                                                capacity=capacity)
            self.monitor = HealthMonitor(world_size)
            self.supervisor = Supervisor(world_size, self.fault_runtime)
        self._pending_escalation = False
        self._step_index = 0
        self._batches_drawn = 0
        self._dead_prev: set[int] = set()
        # overlapped engine mode: per-layer gradients enqueue for
        # reduction as their backward stages finish.  Opt-in and
        # independent of config.overlap (which only drives the timed
        # perf model) so existing sequential runs keep their exact
        # rng-consumption order.
        self.overlap = overlap
        self._ready_order: list[str] = []
        self._ready_seen: set[str] = set()
        if overlap:
            if mode != "cgx":
                raise ValueError("overlap=True requires cgx mode")

            def on_grad_ready(names: list[str]) -> None:
                for name in names:
                    if name not in self._ready_seen:
                        self._ready_seen.add(name)
                        self._ready_order.append(name)

            # replica 0's emission order stands for all replicas (same
            # model, same deterministic backward traversal)
            self.replicas[0].register_grad_ready_hook(on_grad_ready)

    def _make_optimizer(self, replica):
        recipe = self.recipe
        if recipe.optimizer == "adam":
            return Adam(replica.parameters(), lr=recipe.lr,
                        weight_decay=recipe.weight_decay)
        return SGD(replica.parameters(), lr=recipe.lr,
                   momentum=recipe.momentum,
                   weight_decay=recipe.weight_decay)

    def train_step(self) -> float:
        """One synchronized step; returns the mean live-worker loss.

        With a fault plan attached, the step first advances the plan's
        cursor and takes one membership decision, applied once: crashed
        ranks skip compute and contribute zeros (their optimizer state
        freezes until rejoin), ranks over the straggler budget are
        demoted to the carry-buffer quorum, the mean is re-normalized
        over the contributing ranks, and (re)joining ranks first adopt a
        live peer's weights and optimizer state.

        The oracle mode fills the decision record from the plan.  In
        ``supervised`` mode the heartbeat-fed :class:`~repro.faults.
        health.Supervisor` makes it: the plan still *causes* crashes and
        slowdowns (it is the physics), but membership, demotion, rejoin
        admission and escalation are driven purely by observed beats —
        an :func:`~repro.faults.plan.oracle_guard` tripwire counts any
        plan query made on the decision path into
        ``counters.oracle_reads`` (certified zero by HLT003).
        """
        if self._pending_escalation:
            self._restore_from_store()
        self._step_index += 1
        step = self._step_index
        coord = self.elastic
        if coord is None:   # no fault plan at all: nothing to decide
            return self._run_members(self._member_ranks(), None, None, set())
        runtime = coord.runtime
        faults = runtime.advance(step)
        dead = faults.dead_ranks()
        # control plane: delivered notices only, never the physics
        booted = coord.poll_notices(step, faults)
        drained = self.ddp.engine.banked_carry_norm() <= DRAIN_TOLERANCE
        for rank in booted:
            self._ensure_replica(rank)
        decision: SupervisorDecision | None = None
        if self.supervised:
            assert self.heartbeat is not None and self.monitor is not None \
                and self.supervisor is not None
            for rank in booted:
                self.monitor.activate(rank, step)
                self.supervisor.register_provision(rank)
            arrivals = self.heartbeat.beats(
                step, ranks=coord.machine_ranks(),
                compute_scale_of=coord.gpu_scale)
            with oracle_guard() as reads:
                cards = self.monitor.observe(step, arrivals)
                decision = self.supervisor.decide(step, cards)
            runtime.counters.oracle_reads += len(reads)
            # accounting (not a decision): a fresh suspicion of a rank
            # that is actually alive is a false positive
            for rank in decision.newly_suspected:
                if rank not in dead:
                    runtime.counters.false_suspicions += 1
            if decision.escalate:
                runtime.counters.escalations += 1
                if self.store is not None:
                    self._pending_escalation = True
            coord.confirm(decision.admitted)
        edec = coord.admit(step, drained)
        members, joined = list(edec.members), edec.joined
        if decision is None:
            # the oracle fills the same record from the plan's physics
            decision = SupervisorDecision(
                step=step,
                participants=tuple(select_members(faults, members)),
                believed_dead=frozenset(dead),
                admitted=tuple(sorted(self._dead_prev - dead)),
                demoted=(), newly_suspected=(), escalate=False)

        # the one application of the decision, whoever made it
        believed = set(decision.believed_dead)
        readmitted = [r for r in decision.admitted
                      if r in members and r not in joined]
        for rank in (*joined, *readmitted):
            self._adopt_peer_state(rank, believed)
        self._dead_prev = believed
        participants: list[int] | None = None
        average_over: int | None = None
        quorum = [r for r in decision.participants if r in members]
        if quorum and len(quorum) < len(members):
            participants = quorum
            runtime.counters.quorum_steps += 1
        missing = believed.intersection(members)
        if missing:
            average_over = len(members) - len(missing)

        loss = self._run_members(members, participants, average_over, dead)
        self._elastic_end_step(coord, runtime, joined, dead)
        if self.supervised and self.store is not None \
                and step % CHECKPOINT_EVERY == 0:
            self.store.save(self.capture_state(), step)
            runtime.counters.store_writes += 1
            runtime.record("store_write")
        return loss

    def _run_members(self, members: list[int],
                     participants: list[int] | None,
                     average_over: int | None, dead: set[int]) -> float:
        """Compute, reduce and apply one step over a decided membership."""
        losses = []
        self._ready_order = []
        self._ready_seen = set()
        for rank in members:
            replica = self.replicas[rank]
            replica.zero_grad()
            if rank in dead:
                continue  # crashed: no compute, zero contribution
            batch = self.task.sample_batch(self._rng)
            self._batches_drawn += 1
            logits = replica(batch[0])
            loss, grad = self.task.loss_and_grad(logits, batch)
            replica.backward(grad)
            losses.append(loss)

        with nullcontext() if self.fault_runtime is None \
                else inject_data_path(self.fault_runtime):
            if self.overlap:
                report = self.ddp.synchronize_overlapped(
                    ready_order=self._complete_ready_order(),
                    participants=participants, average_over=average_over,
                    step=self._step_index,
                    members=members)
                # completion barrier: every consumer below (adaptive
                # observation, clipping, optimizer) runs only after all
                # buckets landed — certified statically by OVL001
                self.ddp.mark_consumed(self._step_index)
            else:
                report = self.ddp.synchronize(participants=participants,
                                              average_over=average_over,
                                              members=members)
        self._last_report = report
        if self.adaptive is not None:
            grads = {name: param.grad
                     for name, param in
                     self.replicas[members[0]].named_parameters()
                     if param.grad is not None}
            self.adaptive.observe(grads)
        if self.recipe.grad_clip > 0:
            # clipping needs the synchronized global norm; apply per
            # replica after reduction (identical values on each).
            for rank in members:
                clip_grad_norm(self.replicas[rank].parameters(),
                               self.recipe.grad_clip)
        for rank in members:
            if rank not in dead:
                self.optimizers[rank].step()
        return float(np.mean(losses))

    def _member_ranks(self) -> list[int]:
        """The ranks that exist right now, ascending: the coordinator's
        members, or the whole fixed world when no fault plan is attached."""
        if self.elastic is None:
            return list(range(self.world_size))
        return self.elastic.member_list()

    def _ensure_replica(self, rank: int) -> None:
        """Grow the replica/optimizer lists to cover a provisioned rank.

        ``self.replicas`` is the same list object the DDP wrapper holds,
        so appending here grows the reduction world in lock-step.  The
        fresh model's seed-deterministic init is immediately overwritten
        by the warm start at admission.
        """
        while len(self.replicas) <= rank:
            replica = self.task.build_model(self.seed)
            self.replicas.append(replica)
            self.optimizers.append(self._make_optimizer(replica))

    def _elastic_end_step(self, coord: ElasticCoordinator,
                          runtime: PlanRuntime, joined: tuple[int, ...],
                          dead: set[int]) -> None:
        """Graceful exits + respec after the step's reduction landed."""
        drained = self.ddp.engine.banked_carry_norm() <= DRAIN_TOLERANCE
        exited = coord.end_step(self._step_index, drained, dead)
        if exited:
            # the departing machines' last contribution is in this
            # step's reduced state: persist it before they vanish
            if self.store is not None:
                self.store.save(self.capture_state(), self._step_index)
                runtime.counters.store_writes += 1
                runtime.record("store_write")
            for rank in exited:
                runtime.record("drain_checkpoint", rank=rank)
                if self.supervised:
                    assert self.supervisor is not None \
                        and self.monitor is not None
                    self.supervisor.mark_departed(rank)
                    self.monitor.deactivate(rank)
        if (joined or exited) and self.adaptive is not None:
            gpus = [coord.rank_gpus[r] for r in coord.member_list()]
            bits = self.adaptive.on_composition_change(
                len(coord.members), alpha_scale=fleet_alpha_scale(gpus))
            runtime.record("respec", world=len(coord.members),
                           layers=len(bits))
            runtime.counters.respecs += 1

    def _complete_ready_order(self) -> list[str]:
        """The step's gradient emission order, covering every parameter.

        Hook-reported names come first (true emission order of replica
        0's backward).  Parameters the hooks did not cover — stages
        without a notification, or every parameter when rank 0 was dead
        this step — append in reverse registration order, the
        conservative ready-at-backward-end default.
        """
        order = list(self._ready_order)
        seen = set(self._ready_seen)
        for name, _ in reversed(list(self.replicas[0].named_parameters())):
            if name not in seen:
                seen.add(name)
                order.append(name)
        return order

    # -- fault recovery ----------------------------------------------------
    def _pour_state(self, rank: int, weights: dict[str, np.ndarray],
                    optimizer_state: dict) -> None:
        """Overwrite replica ``rank``'s weights and optimizer state."""
        for name, param in self.replicas[rank].named_parameters():
            param.data[...] = weights[name]
            param.grad = None
        self.optimizers[rank].load_state_dict(optimizer_state)

    def _adopt_peer_state(self, rank: int, dead: set[int]) -> None:
        """A rejoining ``rank`` copies weights + optimizer state from a peer."""
        peers = [r for r in self._member_ranks()
                 if r != rank and r not in dead and r not in self._dead_prev]
        if not peers:
            return  # no healthy source; keep the stale weights
        source = peers[0]
        self._pour_state(
            rank,
            {name: param.data for name, param
             in self.replicas[source].named_parameters()},
            self.optimizers[source].state_dict())
        if self.fault_runtime is not None:
            self.fault_runtime.counters.checkpoint_restores += 1
            self.fault_runtime.record("state_transfer", rank=rank,
                                      source=source)

    # -- durable full-state checkpoints ------------------------------------
    def capture_state(self) -> dict:
        """Everything bit-identical resume needs, in store-compatible form.

        Per-rank weights and optimizer state (crashed ranks' state is
        legitimately stale), the step index, the data-order cursor, both
        RNG stream states, and the engine's stateful pieces (error-
        feedback residuals, quorum carry buffers).  Every array is
        deep-copied: an optimizer whose ``state_dict`` hands back live
        buffers must not let later training mutate an earlier snapshot.
        """
        return {
            "schema": 1,
            "step": self._step_index,
            "batches_drawn": self._batches_drawn,
            "weights": [
                {name: param.data.copy()
                 for name, param in replica.named_parameters()}
                for replica in self.replicas
            ],
            "optimizers": [_clone_tree(opt.state_dict())
                           for opt in self.optimizers],
            "trainer_rng": self._rng.bit_generator.state,
            "ddp_rng": self.ddp.rng.bit_generator.state,
            "engine": self.ddp.engine.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state` (works on a fresh trainer).

        A snapshot taken after elastic growth carries more replicas
        than a fresh trainer starts with; the extra slots are recreated
        before their state is poured back in.
        """
        self._ensure_replica(len(state["weights"]) - 1)
        for rank in range(len(self.replicas)):
            self._pour_state(rank, state["weights"][rank],
                             state["optimizers"][rank])
        self._step_index = int(state["step"])
        self._batches_drawn = int(state["batches_drawn"])
        self._rng.bit_generator.state = state["trainer_rng"]
        self.ddp.rng.bit_generator.state = state["ddp_rng"]
        self.ddp.engine.load_state_dict(state["engine"])

    def _restore_from_store(self) -> None:
        """Deferred escalation: rewind to the newest valid checkpoint."""
        self._pending_escalation = False
        runtime = self.fault_runtime
        if self.store is None:
            return

        def note_corrupt(step: int, exc: Exception) -> None:
            if runtime is not None:
                runtime.counters.store_corrupt_detected += 1
                runtime.record("store_corrupt", restore_step=step)

        loaded = self.store.load_latest(on_corrupt=note_corrupt)
        if loaded is None:
            return
        step, state = loaded
        self.restore_state(state)
        if self.monitor is not None:
            self.monitor.reset()
        if self.supervisor is not None:
            self.supervisor.reset()
        self._dead_prev = set()
        if runtime is not None:
            runtime.counters.checkpoint_restores += 1
            runtime.record("escalation_restore", restore_step=step)

    def train(self, steps: int | None = None,
              eval_every: int = 25) -> TrainResult:
        """Run the recipe (or ``steps``) and return the final metric."""
        steps = self.recipe.steps if steps is None else steps
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        history = []
        wire_total = 0
        retries_total = 0
        loss = float("nan")
        for step in range(1, steps + 1):
            loss = self.train_step()
            wire_total += self._last_report.wire_bytes
            retries_total += self._last_report.retries
            if step % eval_every == 0 or step == steps:
                # the lowest member stands for all (identical weights);
                # rank 0 itself may have been preempted away
                metric = self.task.evaluate(
                    self.replicas[self._member_ranks()[0]])
                history.append({"step": step, "loss": loss, "metric": metric})
        return TrainResult(
            task=self.task.name,
            metric_name=self.task.metric_name,
            final_metric=history[-1]["metric"] if history else float("nan"),
            final_loss=loss,
            history=history,
            compression_ratio=self._last_report.compression_ratio,
            wire_bytes_total=wire_total,
            steps=steps,
            retries_total=retries_total,
            fault_summary=(self.fault_runtime.counters.to_dict()
                           if self.fault_runtime is not None else None),
        )

    def in_sync(self) -> bool:
        return self.ddp.check_in_sync(members=self._member_ranks())


def train_family(
    family: str,
    world_size: int = 4,
    config: CGXConfig | None = None,
    steps: int | None = None,
    seed: int = 0,
    mode: str = "cgx",
    adaptive_method: str | None = None,
    eval_every: int = 25,
    fault_plan: FaultPlan | None = None,
    supervised: bool = False,
) -> TrainResult:
    """Convenience: build the task from its recipe and train it.

    ``config=None`` trains the uncompressed baseline (fp32, no engine
    side effects beyond averaging).  A run that needs a recovery
    policy, a checkpoint store or the overlapped engine builds
    :class:`DataParallelTrainer` itself.
    """
    recipe = get_recipe(family)
    task = make_task(family, batch_size=recipe.batch_size, **recipe.kwargs())
    if config is None:
        from repro.compression import CompressionSpec

        config = CGXConfig(compression=CompressionSpec("none"))
    adaptive = None
    if adaptive_method is not None:
        adaptive = AdaptiveController(config, method=adaptive_method)
    trainer = DataParallelTrainer(task, world_size=world_size, config=config,
                                  recipe=recipe, seed=seed, mode=mode,
                                  adaptive=adaptive, fault_plan=fault_plan,
                                  supervised=supervised)
    return trainer.train(steps=steps, eval_every=eval_every)
