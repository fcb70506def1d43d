"""Deep Gradient Compression (Lin et al., 2017).

The strongest sparsifier the paper discusses — ">100x compression" but
"at the price of extensive model-specific hyper-parameter tuning"
(Section 2.3).  Faithful to the recipe:

* **momentum correction** — local momentum accumulates *before*
  sparsification, and both the momentum and the velocity accumulators
  are masked where values are transmitted;
* **density warm-up** — compression ramps exponentially from a gentle
  starting density to the aggressive target over the first epochs,
  which is exactly the kind of extra schedule ("hyper-parameter
  tuning") CGX's Goal 2 forbids for itself;
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


@register
class DGCCompressor(Sparsifier):
    """TopK with momentum correction and density warm-up."""

    contract = CompressorContract("dgc", stateful=True,
                                  requires_error_feedback=True,
                                  self_error_feedback=True)

    def __init__(self, spec: CompressionSpec, momentum: float = 0.9,
                 warmup_steps: int = 0, initial_density: float = 0.25
                 ) -> None:
        super().__init__(spec)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.warmup_steps = warmup_steps
        self.initial_density = initial_density
        self._momentum_buf: dict = {}
        self._velocity: dict = {}
        self._steps: dict = {}

    def current_density(self, key: Any) -> float:
        """Warm-up schedule: exponential ramp to the target density."""
        step = self._steps.get(key, 0)
        if self.warmup_steps <= 0 or step >= self.warmup_steps:
            return self.spec.density
        # geometric interpolation initial -> target
        frac = step / self.warmup_steps
        log_density = (np.log(self.initial_density) * (1 - frac)
                       + np.log(self.spec.density) * frac)
        return float(np.exp(log_density))

    def compress(self, array: np.ndarray, rng: np.random.Generator,
                 key: Any = None) -> Compressed:
        flat = np.asarray(array, dtype=np.float32).ravel()
        momentum = self._momentum_buf.get(key)
        if momentum is None or momentum.shape != flat.shape:
            momentum = np.zeros_like(flat)
            self._velocity[key] = np.zeros_like(flat)
            self._steps[key] = 0
        velocity = self._velocity[key]

        momentum = self.momentum * momentum + flat
        velocity = velocity + momentum

        indices = top_indices(velocity, self.current_density(key))
        values = velocity[indices].copy()

        # masking: transmitted coordinates reset both accumulators
        momentum[indices] = 0.0
        velocity[indices] = 0.0
        self._momentum_buf[key] = momentum
        self._velocity[key] = velocity
        self._steps[key] = self._steps.get(key, 0) + 1

        payload = {"indices": indices, "values": values}
        return Compressed(self.spec, flat.size, tuple(np.shape(array)),
                          payload, int(indices.size * 8))

    def reset(self) -> None:
        self._momentum_buf.clear()
        self._velocity.clear()
        self._steps.clear()
