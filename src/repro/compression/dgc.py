"""Deep Gradient Compression (Lin et al., 2017).

The strongest sparsifier the paper discusses — ">100x compression" but
"at the price of extensive model-specific hyper-parameter tuning"
(Section 2.3).  Faithful to the recipe:

* **momentum correction** — local momentum accumulates *before*
  sparsification, and both the momentum and the velocity accumulators
  are masked where values are transmitted;
* velocity accumulation doubles as error feedback.

Stateful per key (worker, layer): do not share one instance across
uncoordinated callers.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import Compressed, CompressionSpec, register
from .contracts import CompressorContract
from .topk import Sparsifier, top_indices

__all__ = ["DGCCompressor"]

#: local momentum coefficient, accumulated before sparsification
MOMENTUM = 0.9


@register
class DGCCompressor(Sparsifier):
    """TopK with momentum correction."""

    contract = CompressorContract("dgc", stateful=True,
                                  requires_error_feedback=True,
                                  self_error_feedback=True)

    def __init__(self, spec: CompressionSpec) -> None:
        super().__init__(spec)
        self._momentum_buf: dict = {}
        self._velocity: dict = {}

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        momentum = self._momentum_buf.get(key)
        if momentum is None or momentum.shape != flat.shape:
            momentum = np.zeros_like(flat)
            self._velocity[key] = np.zeros_like(flat)
        velocity = self._velocity[key]

        momentum = MOMENTUM * momentum + flat
        velocity = velocity + momentum

        indices = top_indices(velocity, self.spec.density)
        values = velocity[indices].copy()

        # masking: transmitted coordinates reset both accumulators
        momentum[indices] = 0.0
        velocity[indices] = 0.0
        self._momentum_buf[key] = momentum
        self._velocity[key] = velocity

        payload = {"indices": indices, "values": values}
        return Compressed(self.spec, flat.size, tuple(np.shape(array)),
                          payload, int(indices.size * 8))
