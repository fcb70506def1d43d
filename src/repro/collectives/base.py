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
from typing import Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from repro.compression import Compressor
from repro.compression.base import Compressed
from repro.compression.topk import ErrorFeedback

from .trace import (emit_buffer_read, emit_buffer_update, emit_buffer_write,
                    emit_recv, emit_send, emit_state_use, tracing_active)

__all__ = ["ReduceStats", "chunk_bounds", "split_chunks", "check_buffers",
           "compress_chunk", "decompress_chunk", "accumulate_chunk",
           "store_chunk", "wire_faults", "deliver_chunk",
           "Message", "send_chunks", "broadcast_chunk"]


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


def _uses_keyed_state(compressor: Compressor) -> bool:
    """Whether compressing under a key touches per-key mutable state."""
    if isinstance(compressor, ErrorFeedback):
        return True
    contract = getattr(type(compressor), "contract", None)
    return bool(contract is not None and contract.stateful)


def compress_chunk(compressor: Compressor, chunk: np.ndarray,
                   rng: np.random.Generator, key: str, stats: ReduceStats,
                   rank: int | None = None, tag: str = "") -> Compressed:
    """Compress one chunk, counting the kernel call; returns the wire
    object.  No bytes are booked here — an encoding nobody receives
    crosses no wire; the message primitives book per send.

    ``rank`` attributes the access under an active trace: a buffer read
    of ``chunk``, plus a state use of ``key`` when the compressor keeps
    per-key state (error feedback, PowerSGD/DGC accumulators).
    """
    if rank is not None and tracing_active():
        emit_buffer_read(rank, chunk, tag=tag or str(key))
        if _uses_keyed_state(compressor):
            emit_state_use(rank, key, tag=tag or str(key))
    compressed = compressor.compress(chunk, rng, key=key)
    stats.compress_calls += 1
    return compressed


def decompress_chunk(compressor: Compressor, compressed: Compressed,
                     stats: ReduceStats) -> np.ndarray:
    stats.decompress_calls += 1
    return compressor.decompress(compressed)


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

class Message(NamedTuple):
    """One point-to-point payload: ``chunk`` of ``src``, encoded under the
    compressor state ``key``, for ``dst`` at schedule ``step``."""

    chunk: np.ndarray
    key: str
    src: int
    dst: int
    step: int
    tag: str


def send_chunks(compressor: Compressor, rng: np.random.Generator,
                stats: ReduceStats, messages: Iterable[Message],
                ) -> Iterator[np.ndarray]:
    """Point-to-point: what each receiver decodes, in ``messages`` order.

    Post half, for the whole round before anything lands (ranks of a
    simultaneous round all encode their pre-round state): encode, book,
    ``emit_send``.  Land half, one message per iteration so the receiver
    folds each payload in before the next lands: the fault channel, the
    ``recv`` endpoint, the decode of whatever the channel delivered.
    """
    posted = []
    for chunk, key, src, dst, step, tag in messages:
        wire = compress_chunk(compressor, chunk, rng, key, stats,
                              rank=src, tag=tag)
        stats.record_send(wire.nbytes)
        emit_send(src, dst, wire.nbytes, step, tag)
        posted.append((wire, src, dst, step, tag))
    for wire, src, dst, step, tag in posted:
        wire = deliver_chunk(wire, stats, src, dst, step, tag)
        emit_recv(dst, src, wire.nbytes, step, tag)
        yield decompress_chunk(compressor, wire, stats)


def broadcast_chunk(compressor: Compressor, rng: np.random.Generator,
                    stats: ReduceStats, chunk: np.ndarray, key: str,
                    root: int, edges: Sequence[tuple[int, int, int]],
                    tag: str) -> np.ndarray:
    """Fan-out: ``root`` encodes ``chunk`` once and the payload is
    forwarded verbatim along ``edges`` (``(src, dst, step)``, in sending
    order — a star, a ring's hop chain, a tree's edge list).

    Every edge is booked and passes the fault channel (retransmissions
    are per receiver), but all ranks adopt the one canonical decode
    returned here, so replicas stay bit-identical whatever a link did.
    """
    wire = compress_chunk(compressor, chunk, rng, key, stats,
                          rank=root, tag=tag)
    for src, dst, step in edges:
        stats.record_send(wire.nbytes)
        emit_send(src, dst, wire.nbytes, step, tag)
        deliver_chunk(wire, stats, src, dst, step, tag)
    decoded = decompress_chunk(compressor, wire, stats)
    for src, dst, step in edges:
        emit_recv(dst, src, wire.nbytes, step, tag)
    return decoded
