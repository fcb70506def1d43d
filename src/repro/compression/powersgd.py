"""PowerSGD: low-rank gradient decomposition via power iteration.

Vogels et al. (2019): the gradient matrix M (m x n) is approximated as
P @ Q^T with rank r << min(m, n), computed by one step of subspace
power iteration warm-started from the previous step's Q.  P and Q are
*associative* under averaging, which is why PyTorch ships PowerSGD as a
DDP hook — and also why the paper uses it as the strongest baseline.

Reproduced behaviours the paper relies on:

* 1-D tensors (biases, norms) stay uncompressed.
* Error feedback is required for accuracy.
* fp16 incompatibility: the power iteration diverges at half precision
  (paper: PowerSGD "can lead to divergence" under fp16), so
  :meth:`PowerSGDCompressor.compress` rejects float16 gradients and a
  PowerSGD run trains in fp32 (``fp32_only``).
* The factors are per matrix and associative (``factored``): PowerSGD
  packages never group, and the timed path prices each one as the
  dependent pair P-allreduce -> orthonormalize -> Q-allreduce.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

from .base import FP32_BYTES, Compressed, CompressionSpec, Compressor, Shape, register
from .contracts import CompressorContract

__all__ = ["PowerSGDCompressor", "orthonormalize"]


def _factor_shape(spec: CompressionSpec, numel: int, shape: Shape
                  ) -> tuple[int, int, int]:
    """``(rows, cols, rank)`` of the matrix view PowerSGD factors: the
    rank is clamped to the matrix, and 0 for 1-D tensors (sent dense)."""
    if shape is None or len(shape) < 2:
        return 1, numel, 0
    rows, cols = shape[0], numel // shape[0]
    return rows, cols, 0 if 1 in (rows, cols) else min(spec.rank, rows, cols)


#: a column whose residual norm falls below this is degenerate
_ORTHO_EPS = 1e-8


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Gram-Schmidt orthonormalization of the columns of ``matrix``."""
    out = matrix.astype(np.float32, copy=True)
    for col in range(out.shape[1]):
        for prev in range(col):
            out[:, col] -= (out[:, prev] @ out[:, col]) * out[:, prev]
        norm = np.linalg.norm(out[:, col])
        if norm < _ORTHO_EPS:
            # degenerate direction: re-seed deterministically
            out[:, col] = 0.0
            out[col % out.shape[0], col] = 1.0
        else:
            out[:, col] /= norm
    return out


@register
class PowerSGDCompressor(Compressor):
    """Rank-``r`` power-iteration compressor with warm-started Q."""

    contract = CompressorContract("powersgd", stateful=True,
                                  requires_error_feedback=True)
    fields = ("dense", "p", "q")  # 1-D tensors send "dense" only
    fp32_only = True
    factored = True

    @classmethod
    def validate(cls, spec: CompressionSpec) -> None:
        if spec.rank < 1:
            raise ValueError(f"powersgd rank must be >= 1, got {spec.rank}")

    @classmethod
    def wire_bytes(cls, spec: CompressionSpec, numel: int, shape: Shape) -> int:
        rows, cols, rank = _factor_shape(spec, numel, shape)
        if not rank:
            return numel * FP32_BYTES  # 1-D tensors stay uncompressed
        # the operator's clamped rank, or small layers over-report
        return (rows + cols) * rank * FP32_BYTES

    def __init__(self, spec: CompressionSpec) -> None:
        super().__init__(spec)
        self._q_memory: dict = {}

    def _q_for(self, key: Any, cols: int, rank: int) -> np.ndarray:
        q = self._q_memory.get(key)
        if q is None or q.shape != (cols, rank):
            # stable per-key seed (hash() is salted per process)
            digest = zlib.crc32(repr(key).encode()) if key is not None else 0
            rng = np.random.default_rng(digest)
            q = orthonormalize(
                rng.standard_normal((cols, rank)).astype(np.float32)
            )
            self._q_memory[key] = q
        return q

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        if np.asarray(array).dtype == np.float16:
            raise TypeError("PowerSGD is incompatible with fp16 gradients "
                            "(power iteration diverges at half precision)")
        shape = tuple(np.shape(array))
        numel = int(np.size(array))
        rows, cols, rank = _factor_shape(self.spec, numel, shape)
        if not rank:
            payload = {"dense": np.asarray(array, dtype=np.float32).ravel().copy()}
        else:
            matrix = np.asarray(array, dtype=np.float32).reshape(rows, cols)
            p = orthonormalize(matrix @ self._q_for(key, cols, rank))
            q_new = matrix.T @ p
            self._q_memory[key] = q_new
            payload = {"p": p, "q": q_new.copy()}
        return Compressed(self.spec, numel, shape, payload,
                          self.spec.wire_bytes(numel, shape))

    def decompress(self, compressed: Compressed) -> np.ndarray:
        if "dense" in compressed.payload:
            return compressed.payload["dense"].reshape(compressed.shape)
        p, q = compressed.payload["p"], compressed.payload["q"]
        return (p @ q.T).reshape(compressed.shape)

    def flops(self, numel: int, shape: Shape) -> float:
        """Compression compute cost: 3 matmuls + orthonormalization.

        This is the "Technical Issue 1" cost that makes decomposition
        methods slower than single-pass quantization at line rate.
        """
        rows, cols, rank = _factor_shape(self.spec, numel, shape)
        matmuls = 3 * 2.0 * rows * cols * rank     # MQ, M^T P, P Q^T
        gram_schmidt = 2.0 * rows * rank * rank
        return matmuls + gram_schmidt
