"""Shared machinery for compression-aware collective operations.

The paper's central systems observation (Section 3) is that lossy
compression operators are *non-associative*, so the reduction scheme and
the compression operator must be chosen together: each scheme implies a
different number of compress->decompress round-trips per value, hence a
different accumulated error.  The collectives in this package therefore
execute the *real* data path on numpy buffers — errors are measured,
never modeled.

All collectives return the **sum** of the inputs; callers average by
dividing afterwards (in full precision, which adds no error).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from repro.compression import Compressor
from repro.compression.base import Compressed
from repro.compression.topk import ErrorFeedback

from .schedules import Cast, Send
from .trace import (declare_buffer, emit_buffer_read, emit_buffer_update,
                    emit_buffer_write, emit_recv, emit_send, emit_state_use,
                    tracing_active)

__all__ = ["ReduceStats", "chunk_bounds", "split_chunks", "check_buffers",
           "open_reduction", "accumulate_chunk", "store_chunk", "wire_faults",
           "deliver_chunk", "Message", "send_chunks", "Broadcast",
           "broadcast_chunks", "broadcast_chunk"]


@dataclass
class ReduceStats:
    """Accounting of one collective call."""

    scheme: str
    world_size: int
    numel: int
    wire_bytes: int = 0          # total payload bytes moved between ranks
    compress_calls: int = 0      # compression kernel invocations
    decompress_calls: int = 0
    max_recompressions: int = 0  # worst-case quantize rounds any value saw
    retries: int = 0             # fault-channel retransmissions
    retransmit_bytes: int = 0    # extra wire bytes those retries moved

    def record_send(self, nbytes: int, retry: bool = False) -> None:
        """Book one payload crossing the wire (``retry``: a fault-channel
        retransmission, which is counted as such on top)."""
        self.wire_bytes += nbytes
        if retry:
            self.retries += 1
            self.retransmit_bytes += nbytes

    def absorb(self, sub: "ReduceStats") -> None:
        """Roll a nested collective's counters into this one: every field
        but the call's identity and the depth, which the composing scheme
        sets (parallel stages take a max, sequential ones add)."""
        for field in fields(self):
            if field.name not in ("scheme", "world_size", "numel",
                                  "max_recompressions"):
                setattr(self, field.name, getattr(self, field.name)
                        + getattr(sub, field.name))


# -- fault-channel hook ------------------------------------------------------
#
# Every payload the two message primitives below move passes through
# deliver_chunk.  A fault channel (installed by repro.faults via
# wire_faults) intercepts it there without the collectives importing the
# faults package — which would be circular, since faults imports this
# module.  The hook is a single None check per logical message when no
# campaign is running.

class DeliveryChannel(Protocol):
    """What :func:`wire_faults` installs (normally a
    :class:`~repro.faults.inject.FaultChannel`)."""

    def deliver(self, wire: Compressed, stats: ReduceStats, src: int,
                dst: int, step: int, tag: str) -> Compressed:
        """The payload ``dst`` should decode."""


_channel: DeliveryChannel | None = None


@contextmanager
def wire_faults(channel: DeliveryChannel) -> Iterator[None]:
    """Install ``channel`` as the active fault interceptor.

    Channels nest like traces: the innermost wins, the previous one is
    restored on exit.
    """
    global _channel
    previous = _channel
    _channel = channel
    try:
        yield
    finally:
        _channel = previous


def deliver_chunk(wire: Compressed, stats: ReduceStats, src: int, dst: int,
                  step: int = 0, tag: str = "") -> Compressed:
    """Pass one logical point-to-point payload through the fault channel.

    With no channel installed it returns ``wire`` unchanged; under a
    campaign it may book retransmissions into ``stats`` and, when CRC
    checking is disabled, hand back a corrupted payload for the receiver
    to absorb.
    """
    if _channel is None:
        return wire
    return _channel.deliver(wire, stats, src, dst, step, tag)


def chunk_bounds(numel: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, nearly equal chunk boundaries covering [0, numel)."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    base, extra = divmod(numel, n_chunks)
    bounds = []
    start = 0
    for chunk in range(n_chunks):
        size = base + (1 if chunk < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def split_chunks(buffer: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Views of ``buffer`` split into ``n_chunks`` contiguous chunks."""
    flat = buffer.ravel()
    return [flat[a:b] for a, b in chunk_bounds(flat.size, n_chunks)]


def check_buffers(buffers: list[np.ndarray]) -> int:
    """Validate a per-rank buffer list; returns the common element count."""
    if not buffers:
        raise ValueError("need at least one rank buffer")
    numel = buffers[0].size
    for i, buf in enumerate(buffers):
        if buf.size != numel:
            raise ValueError(
                f"rank {i} buffer has {buf.size} elements, expected {numel}"
            )
    return numel


def open_reduction(scheme: str, buffers: list[np.ndarray],
                   key: str) -> tuple[int, int, ReduceStats]:
    """Validate ``buffers`` and declare each as its rank's input:
    ``(numel, world, stats)`` of one ``scheme`` call."""
    numel = check_buffers(buffers)
    for rank, buf in enumerate(buffers):
        declare_buffer(rank, buf, name=f"{key}/input")
    return numel, len(buffers), ReduceStats(scheme, len(buffers), numel)


def _uses_keyed_state(compressor: Compressor) -> bool:
    """Whether compressing under a key touches per-key mutable state."""
    if isinstance(compressor, ErrorFeedback):
        return True
    contract = getattr(type(compressor), "contract", None)
    return bool(contract is not None and contract.stateful)


def _encode(compressor: Compressor, rng: np.random.Generator,
            stats: ReduceStats, chunks: Sequence[np.ndarray],
            keys: Sequence[str]) -> list[Compressed]:
    """Encode ``chunks`` in one pass, counting one kernel call a chunk.
    No bytes are booked here — an encoding nobody receives crosses no
    wire; the message primitives book per send."""
    stats.compress_calls += len(chunks)
    return compressor.compress_many(chunks, rng, keys)


def _decode(compressor: Compressor, stats: ReduceStats,
            wires: Sequence[Compressed]) -> list[np.ndarray]:
    stats.decompress_calls += len(wires)
    return compressor.decompress_many(wires)


def _emit_encode(keyed: bool, rank: int, chunk: np.ndarray, key: str,
                 tag: str) -> None:
    """The accesses one encode makes under an active trace: a buffer
    read of ``chunk``, plus a state use of ``key`` when the compressor
    keeps per-key state (error feedback, PowerSGD/DGC accumulators)."""
    emit_buffer_read(rank, chunk, tag=tag or key)
    if keyed:
        emit_state_use(rank, key, tag=tag or key)


def accumulate_chunk(target: np.ndarray, value: np.ndarray,
                     rank: int | None = None, tag: str = "") -> np.ndarray:
    """``target += value`` with an in-place-update access record."""
    if rank is not None:
        emit_buffer_update(rank, target, tag=tag)
    target += value
    return target


def store_chunk(target: np.ndarray, value: np.ndarray,
                rank: int | None = None, tag: str = "") -> np.ndarray:
    """``target[:] = value`` with a write access record."""
    if rank is not None:
        emit_buffer_write(rank, target, tag=tag)
    target[:] = value
    return target


# -- the two message primitives ----------------------------------------------
#
# A reduction scheme is who sends which chunk to whom and how often it is
# re-quantized; *how* a message moves is the same everywhere and lives
# here: encode -> book the bytes per edge -> emit_send -> deliver_chunk
# -> decode -> emit_recv.  Bytes are booked where they are sent, so
# ``wire_bytes`` equals the traced send bytes on every cell.
#
# A call encodes every chunk it is handed in one compress_many and
# decodes every delivered payload in one decompress_many: the quantizer
# runs once per round, not once per chunk.  The trace records only name
# byte spans, so they are emitted in schedule order apart from the
# arithmetic, and the channel sees each payload where it always did.

class Message(NamedTuple):
    """One point-to-point payload of a schedule's ``send``: ``chunk`` of
    its source, encoded under the compressor state ``key``; its receiver
    adds the decode into its buffer ``into`` (an update tagged
    ``into_tag``)."""

    send: Send
    chunk: np.ndarray
    key: str
    into: np.ndarray
    into_tag: str


def send_chunks(compressor: Compressor, rng: np.random.Generator,
                stats: ReduceStats, rounds: Sequence[Sequence[Message]],
                ) -> None:
    """Point-to-point: deliver every message and fold each decode into
    its receiver's ``into``, in order.

    Each inner sequence is one simultaneous round, emitted as it runs:
    a post half (every sender encodes its pre-round state: read,
    ``emit_send``) before a land half (per message: the fault channel,
    the ``recv`` endpoint, the receiver's update).  Rounds follow each
    other, so ``[[m] for m in messages]`` is a sequence of lone sends.
    All chunks are encoded up front, so no message's ``chunk`` may be
    another's ``into``.  Every payload is decoded as the channel
    delivered it (a corrupted one included), and the folds run in
    message order.
    """
    messages = [msg for round_ in rounds for msg in round_]
    wires = _encode(compressor, rng, stats, [m.chunk for m in messages],
                    [m.key for m in messages])
    traced = tracing_active()
    keyed = traced and _uses_keyed_state(compressor)
    delivered: list[Compressed] = []
    posted = iter(wires)
    for round_ in rounds:
        landing: list[Compressed] = []
        for msg, wire in zip(round_, posted):
            if traced:
                src, dst, _, step, tag = msg.send
                _emit_encode(keyed, src, msg.chunk, msg.key, tag)
                emit_send(src, dst, wire.nbytes, step, tag)
            stats.record_send(wire.nbytes)
            landing.append(wire)
        for msg, wire in zip(round_, landing):
            src, dst, _, step, tag = msg.send
            wire = deliver_chunk(wire, stats, src, dst, step, tag)
            if traced:
                emit_recv(dst, src, wire.nbytes, step, tag)
                emit_buffer_update(dst, msg.into, tag=msg.into_tag)
            delivered.append(wire)
    for msg, value in zip(messages, _decode(compressor, stats, delivered)):
        target = msg.into
        target += value


class Broadcast(NamedTuple):
    """One fan-out of a schedule's ``cast``: its root encodes ``chunk``
    once under ``key`` and the payload is forwarded verbatim along the
    cast's edges (in sending order — a star, a ring's hop chain, a tree's
    edge list); each ``(view, rank)`` of ``into`` receives a copy of the
    decode (a write tagged ``into_tag``)."""

    cast: Cast
    chunk: np.ndarray
    key: str
    into: Sequence[tuple[np.ndarray, int]] = ()
    into_tag: str = ""


def broadcast_chunks(compressor: Compressor, rng: np.random.Generator,
                     stats: ReduceStats, fans: Sequence[Broadcast],
                     ) -> list[np.ndarray]:
    """Fan-outs, one after another: the canonical decode of each.

    Every edge is booked and passes the fault channel (retransmissions
    are per receiver), but all ranks adopt the one canonical decode, so
    replicas stay bit-identical whatever a link did.  The payloads are
    encoded in one pass and decoded in one.
    """
    wires = _encode(compressor, rng, stats, [f.chunk for f in fans],
                    [f.key for f in fans])
    traced = tracing_active()
    keyed = traced and _uses_keyed_state(compressor)
    for fan, wire in zip(fans, wires):
        root, _, edges, tag = fan.cast
        if traced:
            _emit_encode(keyed, root, fan.chunk, fan.key, tag)
        for src, dst, step in edges:
            stats.record_send(wire.nbytes)
            emit_send(src, dst, wire.nbytes, step, tag)
            deliver_chunk(wire, stats, src, dst, step, tag)
        if traced:
            for src, dst, step in edges:
                emit_recv(dst, src, wire.nbytes, step, tag)
            for view, rank in fan.into:
                emit_buffer_write(rank, view, tag=fan.into_tag)
    decoded = _decode(compressor, stats, wires)
    for fan, value in zip(fans, decoded):
        for view, _ in fan.into:
            view[:] = value
    return decoded


def broadcast_chunk(compressor: Compressor, rng: np.random.Generator,
                    stats: ReduceStats, cast: Cast, chunk: np.ndarray,
                    key: str) -> np.ndarray:
    """One fan-out (see :class:`Broadcast`): its canonical decode."""
    (decoded,) = broadcast_chunks(compressor, rng, stats,
                                  [Broadcast(cast, chunk, key)])
    return decoded
