"""Optimizers and gradient utilities.

The paper's key constraint (Goal 2, "hyperparameter freedom") is that
compressed training must work under the *uncompressed* recipes, so the
optimizers here match the standard PyTorch semantics the recipes assume:
SGD with heavy-ball momentum and weight decay, Adam with bias
correction, and global-norm gradient clipping (the Technical Issue 3
interaction the paper discusses).
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .module import Parameter

__all__ = ["SGD", "Adam", "clip_grad_norm", "global_grad_norm",
           "grad_consumer"]

_F = TypeVar("_F", bound=Callable)

#: Adam's moment decay rates and denominator epsilon (the PyTorch defaults)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def grad_consumer(fn: _F) -> _F:
    """Mark ``fn`` as a sanctioned gradient sink.

    The overlapped engine's completion barrier guarantees every
    ``param.grad`` is fully reduced before consumers run; the OVL006
    lint flags functions on the optimizer/trainer path that read
    ``.grad`` without either synchronizing themselves or carrying this
    marker.  Decorating a function asserts it only ever runs after the
    barrier (optimizer updates, clipping, norm measurement).
    """
    fn.__grad_consumer__ = True  # type: ignore[attr-defined]
    return fn


class Optimizer:
    """Base optimizer over a flat list of parameters."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copyable snapshot of the optimizer's mutable state.

        Used by checkpoint/restore and by elastic membership (a
        rejoining worker adopts a live peer's state so momentum and
        bias correction stay consistent across the fleet).
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`state_dict`."""


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    @grad_consumer
    def step(self) -> None:
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._velocity.get(i)
                if vel is None:
                    vel = np.zeros_like(param.data)
                vel *= self.momentum
                vel += grad
                self._velocity[i] = vel
                grad = vel
            param.data -= self.lr * grad

    def state_dict(self) -> dict:
        return {"velocity": {i: v.copy()
                             for i, v in self._velocity.items()}}

    def load_state_dict(self, state: dict) -> None:
        self._velocity = {int(i): np.array(v, copy=True)
                          for i, v in state["velocity"].items()}


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    @grad_consumer
    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = ADAM_BETAS
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(i)
            if m is None:
                m = np.zeros_like(param.data)
                self._m[i] = m
                self._v[i] = np.zeros_like(param.data)
            v = self._v[i]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def state_dict(self) -> dict:
        return {"step_count": self._step_count,
                "m": {i: m.copy() for i, m in self._m.items()},
                "v": {i: v.copy() for i, v in self._v.items()}}

    def load_state_dict(self, state: dict) -> None:
        self._step_count = int(state["step_count"])
        self._m = {int(i): np.array(m, copy=True)
                   for i, m in state["m"].items()}
        self._v = {int(i): np.array(v, copy=True)
                   for i, v in state["v"].items()}


@grad_consumer
def global_grad_norm(params: list[Parameter]) -> float:
    """L2 norm of all gradients concatenated."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float(np.sum(param.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


@grad_consumer
def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so the global norm is at most ``max_norm``.

    Returns the pre-clip norm.  As the paper notes (Technical Issue 3),
    clipping needs the *synchronized* gradient norm, so DDP wrappers must
    call this only after reduction completes.
    """
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm
