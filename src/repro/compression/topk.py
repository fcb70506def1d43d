"""Top-K magnitude sparsification with optional error feedback.

The standard sparsifier (Strom 2015; Dryden et al. 2016; Lin et al.
2017): keep the K largest-magnitude components, transmit (index, value)
pairs.  CGX uses it for *heterogeneous* compression of naturally sparse
layers such as Transformer embeddings (Section 6.2), always with error
feedback — without the residual the dropped mass never reaches the
model and training stalls, which our tests verify.
"""

from __future__ import annotations

import ast
from typing import Any, Sequence

import numpy as np

from .base import FP32_BYTES, Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract

__all__ = ["Sparsifier", "TopKCompressor", "ErrorFeedback", "top_indices"]


def top_indices(flat: np.ndarray, density: float) -> np.ndarray:
    """Sorted int32 indices of the ``max(1, numel * density)`` largest ``|x|``."""
    k = max(1, int(flat.size * density))
    if k >= flat.size:
        return np.arange(flat.size, dtype=np.int32)
    return np.sort(np.argpartition(np.abs(flat), -k)[-k:]).astype(np.int32)


class Sparsifier(Compressor):
    """The (index, value)-pair frame (not itself a method): wire accounting
    and scatter decode; a subclass's ``compress`` calls :func:`top_indices`."""

    fields = ("indices", "values")

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        if not 0 < spec.density <= 1:
            raise ValueError(f"{spec.method} density must be in (0, 1], "
                             f"got {spec.density}")

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        k = max(1, int(numel * spec.density))
        return k * (4 + FP32_BYTES)  # int32 index + fp32 value

    def decompress(self, compressed: Compressed) -> np.ndarray:
        indices = compressed.payload["indices"]
        # a payload crosses a (possibly corrupting) channel: entries whose
        # index left [0, numel) are dropped, and negatives never wrap
        valid = (indices >= 0) & (indices < compressed.numel)
        out = np.zeros(compressed.numel, dtype=np.float32)
        out[indices[valid]] = compressed.payload["values"][valid]
        return out.reshape(compressed.shape)


@register
class TopKCompressor(Sparsifier):
    """Keep the ``density`` fraction of largest-magnitude elements."""

    contract = CompressorContract("topk", requires_error_feedback=True)

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        indices = top_indices(flat, self.spec.density)
        payload = {"indices": indices, "values": flat[indices].copy()}
        return Compressed(self.spec, flat.size, tuple(np.shape(array)), payload,
                          self.spec.wire_bytes(flat.size))


class ErrorFeedback:
    """Residual accumulator wrapping any lossy compressor.

    On each step the stored residual is added to the gradient before
    compression, and the new residual (input minus what the wire
    carries) is stored for the next step (Karimireddy et al. 2019).
    State is keyed by an arbitrary hashable (worker id, layer name).
    """

    def __init__(self, compressor: Compressor) -> None:
        self.compressor = compressor
        self._residuals: dict = {}

    @property
    def spec(self) -> CompressionSpec:
        return self.compressor.spec

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).copy()
        residual = self._residuals.get(key)
        # a quorum change repartitions collective chunks, so a stored
        # residual may no longer align element-wise with this key's
        # chunk; folding it in would add error to the *wrong* elements,
        # so accumulation restarts instead
        if residual is not None and residual.shape == flat.shape:
            flat += residual
        compressed = self.compressor.compress(flat, rng, key=key)
        restored = self.compressor.decompress(compressed)
        self._residuals[key] = flat - restored
        return compressed

    def decompress(self, compressed: Compressed) -> np.ndarray:
        return self.compressor.decompress(compressed)

    def compress_many(self, arrays: Sequence[np.ndarray],
                      rng: np.random.Generator,
                      keys: Sequence[Any] | None = None) -> list[Compressed]:
        """One :meth:`compress` per chunk, in order: each folds in and
        replaces its key's residual, so a repeated key sees the residual
        its earlier chunk left."""
        if keys is None:
            keys = [None] * len(arrays)
        return [self.compress(array, rng, key=key)
                for array, key in zip(arrays, keys)]

    def decompress_many(self, compressed: Sequence[Compressed]
                        ) -> list[np.ndarray]:
        """Decoding keeps no state: the wrapped operator's batched pass."""
        return self.compressor.decompress_many(compressed)

    def roundtrip(self, array: np.ndarray, rng: np.random.Generator,
                  key: Any = None) -> np.ndarray:
        return self.decompress(self.compress(array, rng, key=key))

    def adopt_residuals(self, other: "ErrorFeedback") -> None:
        """Take over another wrapper's residuals.

        Used when the adaptive policy changes a layer's spec without
        changing the method: residuals are in gradient units, so they
        carry across parameter changes (density, bits) unscaled.
        """
        self._residuals.update(other._residuals)

    def residual_state(self) -> dict:
        """Checkpointable snapshot of the residuals.

        Keys are ``repr()``-encoded (they are tuples of strings/ints in
        practice) so the mapping survives a JSON manifest round-trip;
        :meth:`load_residual_state` decodes them.
        """
        return {repr(k): v.copy() for k, v in self._residuals.items()}

    def load_residual_state(self, state: dict) -> None:
        """Restore residuals captured by :meth:`residual_state`."""
        self._residuals = {
            ast.literal_eval(k): np.asarray(v, dtype=np.float32).copy()
            for k, v in state.items()
        }

    def residual_norm(self, key: Any) -> float:
        residual = self._residuals.get(key)
        if residual is None:
            return 0.0
        return float(np.linalg.norm(residual))

    def total_residual_norm(self) -> float:
        """L2 norm over all keyed residuals (collectives key per chunk)."""
        total = sum(float(np.sum(r * r)) for r in self._residuals.values())
        return float(np.sqrt(total))
