"""dtype contract of :mod:`repro.nn`: float32 in, float32 everywhere.

The paper trains in fp32 (or fp16 under AMP), never in float64.  Under
NumPy 2's promotion rules (NEP 50) a numpy float64 *scalar* is strongly
typed, so one ``np.sqrt(...)`` constant multiplied into an activation
silently promotes it and everything downstream to float64, while
``Parameter.accumulate_grad`` casts the gradients back and hides it.  These tests run one batch of every task family with every
``repro.nn`` module's ``forward``/``backward`` wrapped and reject any
floating array that is not float32.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.training import TASK_FAMILIES, make_task


def _repro_module_classes() -> list[type]:
    """Every ``Module`` subclass defined in ``repro``, the base included."""
    found, stack = [], [Module]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("repro.") and cls not in found:
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


@pytest.fixture
def emitted(monkeypatch):
    """``(where, dtype)`` of every floating array a wrapped call produced."""
    seen: list[tuple[str, np.dtype]] = []

    def watch(cls: type, method: str) -> None:
        inner = vars(cls)[method]

        def wrapper(self, arg):
            out = inner(self, arg)
            if isinstance(out, np.ndarray) and out.dtype.kind == "f":
                seen.append((f"{cls.__name__}.{method}", out.dtype))
            return out

        monkeypatch.setattr(cls, method, wrapper)

    for cls in _repro_module_classes():
        for method in ("forward", "backward"):
            if method in vars(cls):
                watch(cls, method)
    accumulate = Parameter.accumulate_grad

    def accumulate_wrapper(self, grad):
        seen.append(("Parameter.accumulate_grad", grad.dtype))
        return accumulate(self, grad)

    monkeypatch.setattr(Parameter, "accumulate_grad", accumulate_wrapper)
    return seen


@pytest.mark.parametrize("family", TASK_FAMILIES)
def test_one_training_batch_stays_float32(family, emitted):
    task = make_task(family, batch_size=4)
    model = task.build_model(0)
    batch = task.sample_batch(np.random.default_rng(0))
    logits = model(batch[0])
    loss, grad = task.loss_and_grad(logits, batch)
    model.backward(grad)

    assert np.isfinite(loss)
    assert logits.dtype == np.float32
    assert grad.dtype == np.float32
    assert any(where == "Parameter.accumulate_grad" for where, _ in emitted)
    wrong = sorted({f"{where} -> {dtype}" for where, dtype in emitted
                    if dtype != np.float32})
    assert wrong == [], f"{family} emits non-float32 arrays: {wrong}"


#: each primitive as a function of one float32 array
PRIMITIVES = {
    "gelu": F.gelu,
    "gelu_backward": lambda x: F.gelu_backward(x, x),
    "softmax": F.softmax,
    "softmax_backward": lambda x: F.softmax_backward(x, F.softmax(x)),
    "log_softmax": F.log_softmax,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
}


@pytest.mark.parametrize("name", PRIMITIVES)
def test_functional_keeps_float32_inputs_float32(name):
    x = np.random.default_rng(0).normal(size=(3, 7)).astype(np.float32)
    assert PRIMITIVES[name](x).dtype == np.float32
