"""Distributed-data-parallel wrapper over the mini framework.

:class:`CGXDistributedDataParallel` holds N model replicas (the
simulated ranks), runs each worker's forward/backward on its own data
shard, and synchronizes gradients through the CGX engine — real
compression, real reduction scheme, real error.  After synchronization
every replica holds bit-identical averaged gradients, so identical
optimizers keep the replicas in lock-step (asserted by
:meth:`check_in_sync`, and by the test suite).

PowerSGD runs through the same engine as every other method, one
package per layer (a factored operator's packages never group).  The
data path is dense, though: the engine gathers each package into a
flat buffer and the scheme cuts it into 1-D chunks, which
:class:`~repro.compression.powersgd.PowerSGDCompressor` sends
uncompressed, so a ``powersgd`` reduction moves dense bytes and
returns the full-rank mean.  Only the timed path (:func:`repro.collectives.time_allreduce`)
prices the rank-r P -> Q factor pair.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

import numpy as np

from repro.collectives.trace import emit_overlap
from repro.nn.module import Module

from .config import CGXConfig
from .engine import CommunicationEngine, ReductionReport
from .overlap import OverlapReport

__all__ = ["CGXDistributedDataParallel"]

_Report = TypeVar("_Report", bound=ReductionReport)


class CGXDistributedDataParallel:
    """N in-process replicas synchronized through the CGX engine."""

    def __init__(
        self,
        replicas: list[Module],
        config: CGXConfig | None = None,
        mode: str = "cgx",
        seed: int = 0,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        names = [sorted(name for name, _ in r.named_parameters())
                 for r in replicas]
        if any(n != names[0] for n in names[1:]):
            raise ValueError("replicas must share an identical parameter set")
        self.replicas = replicas
        self.engine = CommunicationEngine(config or CGXConfig.cgx_default())
        self.mode = mode
        self.rng = np.random.default_rng(seed)
        self.last_report: ReductionReport | None = None
        # completion barrier for overlapped mode: gradients whose
        # reduction has landed this step (consumers must not read
        # ``param.grad`` before :meth:`mark_consumed` passes)
        self._landed: set[str] = set()
        self._landed_step = -1

    @property
    def world_size(self) -> int:
        return len(self.replicas)

    def _member_ranks(self, members: list[int] | None) -> list[int]:
        """Validated global ranks taking part in this step's reduction."""
        if members is None:
            return list(range(len(self.replicas)))
        ranks = sorted(set(members))
        if not ranks:
            raise ValueError("need at least one member")
        if any(not 0 <= r < len(self.replicas) for r in ranks):
            raise ValueError(
                f"member out of range: {ranks} with "
                f"{len(self.replicas)} replicas")
        return ranks

    def _reduce_members(
        self,
        reduce: Callable[..., tuple[list[dict[str, np.ndarray]], _Report]],
        participants: list[int] | None,
        members: list[int] | None,
        **mode_args: Any,
    ) -> _Report:
        """Gather member gradients, run ``reduce``, install the result.

        The one member-aware gather/install of both synchronization
        modes.  ``reduce`` is the engine entry point (``mode_args`` are
        its mode-specific keywords); ``participants`` (global ranks, a
        subset of the members) are translated to positions in the
        member list.  Missing gradients are treated as zeros.
        """
        ranks = self._member_ranks(members)
        pos = {rank: i for i, rank in enumerate(ranks)}
        if participants is not None:
            missing = sorted(set(participants) - set(ranks))
            if missing:
                raise ValueError(
                    f"participants {missing} are not members {ranks}")
            local_participants = [pos[p] for p in participants]
        else:
            local_participants = None

        per_worker = []
        for rank in ranks:
            grads = {}
            for name, param in self.replicas[rank].named_parameters():
                if param.grad is None:
                    grads[name] = np.zeros(param.data.shape, dtype=np.float32)
                else:
                    grads[name] = param.grad
            per_worker.append(grads)

        reduced, report = reduce(per_worker, self.rng,
                                 participants=local_participants,
                                 **mode_args)
        for rank in ranks:
            replica = self.replicas[rank]
            for name, param in replica.named_parameters():
                param.grad = np.ascontiguousarray(
                    reduced[pos[rank]][name], dtype=np.float32
                )
        self.last_report = report
        return report

    def synchronize(self, participants: list[int] | None = None,
                    average_over: int | None = None,
                    members: list[int] | None = None) -> ReductionReport:
        """Average gradients across replicas via the configured engine.

        Call after every worker has completed its backward pass.  Missing
        gradients (parameters untouched this step) are treated as zeros.

        ``participants`` restricts the reduction to a quorum (graceful
        degradation; skipped ranks' gradients ride the engine's carry
        buffers) and ``average_over`` re-normalizes the mean over the
        number of actually contributing ranks (elastic membership).

        ``members`` names the global ranks that exist this step — elastic
        worlds exclude departed replicas entirely (their slots stay in
        ``self.replicas`` so indices never shift, but they neither
        contribute gradients nor receive the reduction).  ``participants``
        is interpreted in global rank numbers and must be a subset of the
        members.
        """
        return self._reduce_members(
            self.engine.reduce, participants, members,
            mode=self.mode, average_over=average_over)

    def synchronize_overlapped(
        self,
        ready_order: list[str] | None = None,
        participants: list[int] | None = None,
        average_over: int | None = None,
        step: int = 0,
        members: list[int] | None = None,
    ) -> OverlapReport:
        """Overlapped-mode :meth:`synchronize` (cgx planning only).

        ``ready_order`` is the per-layer gradient emission order of the
        backward pass (from the module grad-ready hooks); the engine
        enqueues each layer as it becomes ready, fuses transmission
        buckets and drains them first-needed-first-sent.  Returns once
        every bucket has landed — the completion barrier — after which
        :meth:`mark_consumed` certifies consumption ordering.
        ``participants`` / ``average_over`` / ``members`` mean what they
        mean for :meth:`synchronize`; buckets are re-assembled every
        call, so an elastic world may change between steps.
        """
        if self.mode != "cgx":
            raise ValueError(
                f"overlapped synchronization requires cgx planning, "
                f"not mode {self.mode!r} (blob mode reduces whole fusion "
                f"buffers, which cannot enqueue per layer)")
        report = self._reduce_members(
            self.engine.reduce_overlapped, participants, members,
            ready_order=ready_order, average_over=average_over, step=step)
        self._landed = {name for name, _
                        in self.replicas[0].named_parameters()}
        self._landed_step = step
        return report

    def mark_consumed(self, step: int) -> None:
        """Completion barrier check + ``grad_consumed`` trace events.

        Call after :meth:`synchronize_overlapped` and *before* any
        consumer (clipping, adaptive observation, optimizer) reads
        ``param.grad``.  Raises if a gradient's reduction has not
        landed this step — the invariant OVL001 certifies statically.
        """
        report = self.last_report
        t = report.overlapped_time if isinstance(report, OverlapReport) \
            else 0.0
        for name, _ in self.replicas[0].named_parameters():
            if step != self._landed_step or name not in self._landed:
                raise RuntimeError(
                    f"gradient {name!r} consumed at step {step} before "
                    f"its reduction landed (landed step "
                    f"{self._landed_step})")
            emit_overlap("grad_consumed", step, t, layer=name)

    def check_in_sync(self, members: list[int] | None = None) -> bool:
        """True if all (member) replicas hold identical weights."""
        ranks = self._member_ranks(members)
        reference = dict(self.replicas[ranks[0]].named_parameters())
        for rank in ranks[1:]:
            for name, param in self.replicas[rank].named_parameters():
                if not np.allclose(param.data, reference[name].data, atol=0.0,
                                   rtol=0.0):
                    return False
        return True
