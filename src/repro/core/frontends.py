"""Framework frontends: eager (PyTorch-style) and graph (TensorFlow-style).

The paper integrates CGX with PyTorch (via Horovod and via a Torch-DDP
backend) and with TensorFlow (Appendix D); the engine itself is
frontend-agnostic.  We reproduce that portability claim with two thin
frontends over the same engine:

* :class:`EagerFrontend` — discovers the layer layout from live
  parameter gradients on every step (PyTorch-style define-by-run).
* :class:`GraphFrontend` — captures the layout once at build time and
  replays a fixed package plan (TensorFlow-style define-then-run);
  per-step planning overhead disappears, matching Appendix D's result
  that CGX's speedup carries over unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

from .api import CGXSession
from .filters import LayerInfo

__all__ = ["EagerFrontend", "GraphFrontend"]


class _FrontendBase:
    """Shared reduce path for both frontends."""

    def __init__(self, session: CGXSession, seed: int = 0):
        self.session = session
        self.rng = np.random.default_rng(seed)
        # one engine for the frontend's lifetime: error-feedback
        # residuals and quorum carries live on it across steps
        self._engine = session.engine()

    def reduce(self, per_worker_grads: list[dict[str, np.ndarray]]):
        raise NotImplementedError


class EagerFrontend(_FrontendBase):
    """Define-by-run: layout discovered from the gradients each step,
    under whatever the session is configured with at that step."""

    def reduce(self, per_worker_grads: list[dict[str, np.ndarray]]):
        self._engine.config = self.session.config
        reduced, report = self._engine.reduce(per_worker_grads, self.rng)
        return reduced, report


class GraphFrontend(_FrontendBase):
    """Define-then-run: the package plan is captured once.

    Requires :meth:`capture` (or a model) before the first reduce; a
    layout change after capture raises, mirroring static-graph
    frameworks rejecting shape changes.
    """

    def __init__(self, session: CGXSession, model: Module | None = None,
                 seed: int = 0):
        super().__init__(session, seed)
        self._layers: list[LayerInfo] | None = None
        if model is not None:
            self.capture_model(model)

    def capture_model(self, model: Module) -> None:
        layout = [(name, param.numel)
                  for name, param in model.named_parameters()]
        self.capture(layout)

    def capture(self, layout: list[tuple[str, int]]) -> None:
        self.session.register_model(layout)
        self._layers = self.session.layers
        self._engine = self.session.engine()

    def reduce(self, per_worker_grads: list[dict[str, np.ndarray]]):
        if self._layers is None:
            raise RuntimeError("GraphFrontend.capture() must run before reduce")
        names = {layer.name for layer in self._layers}
        seen = set(per_worker_grads[0])
        if names != seen:
            raise ValueError(
                "gradient layout changed after graph capture: "
                f"missing={sorted(names - seen)}, new={sorted(seen - names)}"
            )
        reduced, report = self._engine.reduce(per_worker_grads, self.rng)
        return reduced, report
