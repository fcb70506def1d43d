"""Partial (quorum) allreduce — the hybrid-synchronization extension.

The paper's conclusion lists "hybrid synchronization setups, e.g. Zhou
et al.; Li et al." as future work; the mechanism underneath those
systems is the *partial collective* (Li et al., PPoPP 2020): a step's
reduction proceeds once a quorum of workers has contributed, and
late workers receive the result without having been waited for.  Their
skipped contribution is not lost — each worker folds its unsent gradient
into its next contribution via a local carry buffer, so the estimator
stays unbiased over time (elastic consistency).

Both paths read one declared schedule
(:func:`~repro.collectives.schedules.partial_schedule`): the data path
here, the timed one in
:func:`repro.collectives.timing.time_partial_allreduce`.
"""

from __future__ import annotations

import ast

import numpy as np

from repro.compression import Compressor

from .base import ReduceStats, broadcast_chunk, check_buffers
from .schedules import partial_schedule
from .sra import sra_allreduce
from .trace import emit_state_use, phase_scope, rank_scope

__all__ = ["PartialAllreduce"]


class PartialAllreduce:
    """Stateful quorum reduction with carry buffers for skipped ranks.

    Each call reduces over ``participants`` only; non-participants'
    gradients accumulate in per-rank carry buffers and are added to
    their next participating contribution, so every gradient is
    delivered exactly once (possibly a few steps late).  The long-run
    sum therefore matches full synchronization exactly — the elastic-
    consistency property — while individual steps see a smaller
    effective batch.
    """

    def __init__(self, world: int):
        if world < 1:
            raise ValueError("world must be >= 1")
        self.world = world
        self._carry: dict[tuple, np.ndarray] = {}

    def reduce(
        self,
        buffers: list[np.ndarray],
        participants: list[int],
        compressor: Compressor,
        rng: np.random.Generator,
        key: str = "",
    ) -> tuple[list[np.ndarray], ReduceStats]:
        """Quorum-sum ``buffers``; every rank receives the result."""
        numel = check_buffers(buffers)
        if len(buffers) != self.world:
            raise ValueError(
                f"expected {self.world} buffers, got {len(buffers)}"
            )
        participants = sorted(set(participants))
        if not participants:
            raise ValueError("need at least one participant")
        if any(not 0 <= p < self.world for p in participants):
            raise ValueError("participant out of range")

        # fold carries into participating gradients; bank the others
        contributions = []
        for rank in participants:
            value = buffers[rank].astype(np.float32).copy()
            carry = self._carry.pop((key, rank), None)
            if carry is not None:
                emit_state_use(rank, (key, rank), tag="carry")
                value += carry.reshape(value.shape)
            contributions.append(value)
        for rank in range(self.world):
            if rank in participants:
                continue
            carry = self._carry.get((key, rank))
            grad = buffers[rank].astype(np.float32)
            emit_state_use(rank, (key, rank), tag="carry")
            self._carry[(key, rank)] = grad.copy() if carry is None \
                else carry + grad

        # reduce among the quorum, then one broadcast payload for everyone
        quorum, late = partial_schedule(tuple(participants), tuple(
            r for r in range(self.world) if r not in participants)).rounds
        stats = ReduceStats("partial", len(participants), numel)
        with phase_scope(f"partial/{quorum.label}"), rank_scope(quorum.members):
            reduced, sub = sra_allreduce(contributions, compressor, rng,
                                         key=f"{key}/{quorum.label}")
        stats.absorb(sub)
        (cast,) = late.casts
        if not cast.edges:
            # full participation: the quorum SRA already delivered
            # identical results to every rank — encoding a late
            # broadcast here would add a third quantization round
            # nobody consumes
            stats.max_recompressions = 2
            return reduced, stats

        with phase_scope(f"partial/{cast.tag}"):
            decoded = broadcast_chunk(
                compressor, rng, stats, cast, reduced[0].ravel(),
                f"{key}/{cast.tag}").reshape(buffers[0].shape)
        # every rank adopts the identical decoded payload
        outputs = [decoded.copy() for _ in range(self.world)]
        # quorum SRA quantizes twice; the late broadcast re-encodes once more
        stats.max_recompressions = 3
        return outputs, stats

    def has_carries(self) -> bool:
        """Whether any rank still holds banked (undelivered) gradient."""
        return bool(self._carry)

    def carry_state(self) -> dict[str, np.ndarray]:
        """Checkpointable snapshot of the carry buffers.

        Keys are ``repr()``-encoded so the mapping survives a JSON
        manifest round-trip; :meth:`load_carry_state` decodes them.
        """
        return {repr(k): v.copy() for k, v in self._carry.items()}

    def load_carry_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore carry buffers captured by :meth:`carry_state`."""
        self._carry = {ast.literal_eval(k): np.asarray(v, dtype=np.float32).copy()
                       for k, v in state.items()}

    def carry_norm(self, key: str, rank: int) -> float:
        carry = self._carry.get((key, rank))
        if carry is None:
            return 0.0
        return float(np.linalg.norm(carry))

    def total_carry_norm(self) -> float:
        """Summed L2 mass banked across every (key, rank) carry buffer.

        Zero means no undelivered gradient information: a dead rank's
        banked zeros keep :meth:`has_carries` true without holding any
        mass, which is exactly the distinction elastic membership
        changes need (rebuilding the reducer may drop zero-mass
        entries, never real gradient).
        """
        return float(sum(np.linalg.norm(c) for c in self._carry.values()))
