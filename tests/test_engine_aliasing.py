"""The engine averages each reduced buffer in place, which is safe only
while every scheme hands each worker a buffer of its own.

Over every cell of the certifier's table (each scheme at worlds 1-5, the
default quorum and the explicit interleaved one, hier on one-GPU nodes),
after both :meth:`CommunicationEngine.reduce` and ``reduce_overlapped``:
no two workers' outputs share memory, no output shares memory with an
input gradient, and the input gradients are unchanged.
"""

import itertools

import numpy as np
import pytest

from repro.collectives import (EXPLICIT_CELLS, SINGLE_MEMBER_CELLS,
                               scheme_cells)
from repro.compression import CompressionSpec
from repro.core import CGXConfig, CommunicationEngine

CELLS = (scheme_cells((1, 2, 3, 4, 5)) + list(EXPLICIT_CELLS)
         + list(SINGLE_MEMBER_CELLS.values()))
SPECS = (CompressionSpec("none"), CompressionSpec("qsgd", bits=4, bucket_size=128))
#: one compressed single-layer package, filtered fp32 tensors fused into
#: one multi-layer package, and a small compressible tensor
LAYOUT = {"fc1.weight": (64, 48), "fc1.bias": (48,), "ln.weight": (48,),
          "fc2.weight": (3000,)}


def _grads(world: int) -> list[dict[str, np.ndarray]]:
    rng = np.random.default_rng(world)
    return [{name: rng.normal(size=shape).astype(np.float32)
             for name, shape in LAYOUT.items()} for _ in range(world)]


def _engine(cell, spec) -> CommunicationEngine:
    scheme = "sra" if cell.scheme == "partial" else cell.scheme
    config = CGXConfig(compression=spec, scheme=scheme)
    return CommunicationEngine(
        config, node_of=list(cell.node_of) if cell.node_of else None)


def _assert_owned(outputs, grads, before):
    arrays = [(w, a) for w, out in enumerate(outputs) for a in out.values()]
    for (w, a), (v, b) in itertools.combinations(arrays, 2):
        if w != v:
            assert not np.shares_memory(a, b), (w, v)
    for out in outputs:
        for a in out.values():
            for grad in grads:
                for g in grad.values():
                    assert not np.shares_memory(a, g)
    for grad, kept in zip(grads, before):
        for name, g in grad.items():
            np.testing.assert_array_equal(g, kept[name])


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.method)
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c.scheme}-w{c.world}"
                         f"-{c.node_of or c.participants or ''}")
def test_each_worker_owns_its_reduced_gradients(cell, spec):
    grads = _grads(cell.world)
    before = [{name: g.copy() for name, g in grad.items()} for grad in grads]
    participants = list(cell.participants) if cell.participants else None
    engine = _engine(cell, spec)
    outputs, _ = engine.reduce(grads, np.random.default_rng(0),
                               participants=participants)
    _assert_owned(outputs, grads, before)
    engine = _engine(cell, spec)
    outputs, _ = engine.reduce_overlapped(grads, np.random.default_rng(0),
                                          participants=participants)
    _assert_owned(outputs, grads, before)
