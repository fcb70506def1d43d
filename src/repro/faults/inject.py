"""Injection hooks: make both execution paths observe a fault plan.

Two injectors, one plan:

* :class:`FaultChannel` intercepts the collectives' *data path*.  It is
  installed through :func:`repro.collectives.base.wire_faults`; every
  logical point-to-point message the schemes move (the same sites that
  emit ``send``/``recv`` trace events) is passed through
  :meth:`FaultChannel.deliver`, which draws loss/corruption outcomes
  from the plan's generator, flips one byte of a corrupted payload
  (every payload byte is a wire byte, so the CRC32 of the byte-exact
  :func:`repro.core.serialization.serialize_payload` encoding always
  catches it — rule FLT004), and
  performs bounded retransmission with full wire/trace accounting —
  every retry adds bytes to ``ReduceStats`` *and* a matching send/recv
  event pair, so the schedule verifier's wire-conservation rule
  (SCH005) keeps holding under injection.

* :class:`FaultyNetwork` subclasses the timed
  :class:`~repro.cluster.network.Network`: link slowdowns stretch
  per-link service times, downed routes raise
  :class:`~repro.faults.policy.LinkDownError` (callers consult
  :func:`~repro.faults.policy.plan_fallback` first), lost transfers
  (and corrupted ones, while CRC checking is on) re-traverse their
  route after a timeout-plus-backoff wait, an exhausted retry budget
  raises under ``strict``, and straggler scaling stretches per-GPU
  kernels.

Both injectors log every occurrence into the shared
:class:`~repro.faults.plan.PlanRuntime`, so the makespan model and the
real-numpy path report one deterministic campaign.
"""

from __future__ import annotations

import zlib
from contextlib import AbstractContextManager

import numpy as np

from repro.cluster.backends import BackendModel
from repro.cluster.network import Network
from repro.cluster.topology import Topology
from repro.collectives.base import ReduceStats, wire_faults
from repro.collectives.trace import emit_recv, emit_send, translate_rank
from repro.compression.base import Compressed
from repro.core.serialization import serialize_payload

from .plan import PlanRuntime
from .policy import (MAX_RETRIES, TIMEOUT, FaultBudgetExceeded, LinkDownError,
                     backoff)

__all__ = ["FaultChannel", "FaultyNetwork", "inject_data_path",
           "payload_crc", "corrupt_payload"]


def payload_crc(wire: Compressed) -> int:
    """CRC32 of the byte-exact wire encoding of ``wire``."""
    return zlib.crc32(serialize_payload(wire))


def corrupt_payload(wire: Compressed, rng: np.random.Generator) -> Compressed:
    """A copy of ``wire`` with one payload byte bit-flipped.

    The flipped byte is chosen by ``rng`` over the concatenated payload
    arrays, mirroring a single-bit wire error.  Returns ``wire``
    unchanged when the payload is empty (nothing to corrupt).
    """
    keys = [k for k in sorted(wire.payload) if wire.payload[k].nbytes > 0]
    if not keys:
        return wire
    corrupted = wire.copy()
    key = keys[int(rng.integers(len(keys)))]
    flat = corrupted.payload[key].reshape(-1).view("uint8")
    offset = int(rng.integers(flat.size))
    flat[offset] ^= 0xFF
    return corrupted


class FaultChannel:
    """Data-path interceptor for one campaign (see module docstring)."""

    def __init__(self, runtime: PlanRuntime) -> None:
        self.runtime = runtime

    def deliver(self, wire: Compressed, stats: ReduceStats, src: int,
                dst: int, step: int, tag: str) -> Compressed:
        """Deliver one logical message, retrying per the policy.

        ``src``/``dst`` are collective-local ranks (translated through
        any active :func:`~repro.collectives.trace.rank_scope` for
        route matching, exactly like the trace events).  Returns the
        payload the receiver decodes — the intact original unless CRC
        checking is off and a corruption slipped through.
        """
        runtime = self.runtime
        policy = runtime.policy
        counters = runtime.counters
        counters.deliveries += 1
        gsrc, gdst = translate_rank(src), translate_rank(dst)
        faults = runtime.faults()
        p_loss = faults.loss_probability(gsrc, gdst)
        p_corrupt = faults.corrupt_probability(gsrc, gdst)
        if p_loss <= 0.0 and p_corrupt <= 0.0:
            return wire

        attempt = 0
        while True:
            draw = float(runtime.rng.random())
            if draw >= p_loss + p_corrupt:
                return wire                      # delivered intact
            if draw < p_loss:
                counters.lost += 1
                runtime.record("message_loss", src=gsrc, dst=gdst, tag=tag,
                               attempt=attempt)
            else:
                corrupted = corrupt_payload(wire, runtime.rng)
                runtime.record("payload_corrupt", src=gsrc, dst=gdst,
                               tag=tag, attempt=attempt)
                if not policy.crc_check:
                    # no CRC: the receiver decodes garbage and training
                    # absorbs the error (measured, not modeled)
                    counters.corrupt_delivered += 1
                    return corrupted
                if corrupted is wire:
                    return wire       # an empty message has no byte to flip
                # every payload byte is a wire byte and a flipped byte
                # always changes a CRC32 (FLT004 certifies it per
                # method), so the receiver's check cannot miss
                counters.corrupt_detected += 1

            attempt += 1
            if attempt > MAX_RETRIES:
                if policy.strict:
                    raise FaultBudgetExceeded(
                        f"{tag}: {gsrc}->{gdst} failed "
                        f"{attempt} deliveries (budget {MAX_RETRIES})")
                counters.forced_deliveries += 1
                runtime.record("forced_delivery", src=gsrc, dst=gdst,
                               tag=tag)
                return wire
            # retransmit: real bytes on the wire, visible to the
            # schedule verifier as a fresh matched send/recv pair
            counters.retries += 1
            counters.retransmit_bytes += wire.nbytes
            stats.record_send(wire.nbytes, retry=True)
            retry_tag = f"{tag}#retry{attempt}"
            emit_send(src, dst, wire.nbytes, step=step, tag=retry_tag)
            emit_recv(dst, src, wire.nbytes, step=step, tag=retry_tag)


def inject_data_path(runtime: PlanRuntime) -> AbstractContextManager[None]:
    """Context manager installing a :class:`FaultChannel` for ``runtime``.

    Usage::

        with inject_data_path(runtime):
            outputs, stats = sra_allreduce(buffers, compressor, rng)
    """
    return wire_faults(FaultChannel(runtime))


class FaultyNetwork(Network):
    """A timed network that observes a fault plan.

    Drop-in replacement for :class:`~repro.cluster.network.Network`
    (``simulate_step`` accepts it via its ``network=`` argument); the
    bound :class:`PlanRuntime`'s step cursor selects which faults bite.
    Only the plan lookups, the loss draw and the retry/back-off loop
    live here; every traversal is the base class's one link walk.
    """

    def __init__(self, topology: Topology, backend: BackendModel | str,
                 runtime: PlanRuntime) -> None:
        super().__init__(topology, backend)
        self.runtime = runtime

    def _route_faults(self, src: int, dst: int
                      ) -> tuple[bool, float, float, float]:
        """``(down, slowdown, p_loss, p_fail)`` of ``src -> dst`` now.

        One draw below ``p_loss`` is a loss; one in ``[p_loss, p_fail)``
        is a corruption of a message that was not lost.
        """
        faults = self.runtime.faults()
        p_loss = faults.loss_probability(src, dst)
        p_fail = 1.0 - (1.0 - p_loss) \
            * (1.0 - faults.corrupt_probability(src, dst))
        return (faults.route_down(src, dst),
                faults.link_slow_factor(src, dst), p_loss, p_fail)

    def transfer(self, src: int, dst: int, nbytes: int, ready: float,
                 job: int | None = None, slow: float = 1.0) -> float:
        if src == dst:
            return ready
        runtime = self.runtime
        policy = runtime.policy
        down, plan_slow, p_loss, p_fail = self._route_faults(src, dst)
        # without CRC checking a corruption goes unnoticed: only a loss
        # is retransmitted, and the draw per attempt stays the same
        p_retry = p_fail if policy.crc_check else p_loss
        slow *= plan_slow   # 1.0 * x == x: the plan's stretch, bit for bit
        if down:
            runtime.record("link_down_hit", src=src, dst=dst)
            raise LinkDownError(
                f"route {src}->{dst} is down at step {runtime.step}")

        attempt = 0
        t = ready
        while True:
            end = self._walk(src, dst, nbytes, t, job, slow)
            if p_fail <= 0.0:
                return end
            draw = float(runtime.rng.random())
            if draw >= p_retry:
                if draw < p_fail:
                    runtime.counters.corrupt_delivered += 1
                return end
            runtime.record("timed_retry", src=src, dst=dst, attempt=attempt)
            attempt += 1
            if attempt > MAX_RETRIES:
                if policy.strict:
                    raise FaultBudgetExceeded(
                        f"timed {src}->{dst} failed {attempt} deliveries "
                        f"(budget {MAX_RETRIES})")
                runtime.counters.forced_deliveries += 1
                return end
            runtime.counters.retries += 1
            runtime.counters.retransmit_bytes += nbytes
            t = end + TIMEOUT + backoff(attempt)

    def transfer_unreliable(self, src: int, dst: int, nbytes: int,
                            ready: float) -> float | None:
        """One-shot datagram delivery: the arrival time, or ``None``.

        Unlike :meth:`transfer` (which retries until delivery, stream
        semantics), this makes a single attempt — a downed route or a
        loss/corruption draw simply drops the message.  Heartbeats use
        this: silence is the failure signal, so a transport that never
        gives up would hide exactly what the detector listens for.
        """
        if src == dst:
            return ready
        down, slow, _, p_fail = self._route_faults(src, dst)
        if down:
            return None
        end = self._walk(src, dst, nbytes, ready, None, slow)
        if p_fail > 0.0 and float(self.runtime.rng.random()) < p_fail:
            return None
        return end

    def run_kernel(self, gpu: int, engine: str, duration: float,
                   ready: float, job: int | None = None) -> float:
        scale = self.runtime.faults().compute_scale(gpu)
        return super().run_kernel(gpu, engine, duration * scale, ready,
                                  job=job)
