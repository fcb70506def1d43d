"""Golden replay on gradient-sized tensors: the quantizer kernels are
bit-identical to the recorded parent.

``tests/fixtures/compression_golden.json`` stops at 2048 elements and
qsgd widths {3, 4}; ``compression_golden_large.json`` (recorded on PR
22's parent, before the word-level kernels) covers every packed width on
tensors whose size is a bucket multiple, is odd, and is 2-D: shapes
``(100003,)``, ``(131072,)``, ``(257, 513)`` x qsgd bits {2, 3, 4, 5, 8}
x scaling {max, l2} x bucket_size {128, 100, 2**30}, qsgd-4 in GRACE's
one-byte wire format, nuq bits {3, 4} and onebit bare and through
:class:`ErrorFeedback` — each cell the small fixture's ``replay_cell``
at seed 0 — plus one engine cell: ``reduce`` and ``reduce_overlapped`` of
a transformer-shaped inventory at world 4 under the paper-default 4-bit
QSGD.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import CompressionSpec
from repro.core import CGXConfig, CommunicationEngine

from .test_compression_golden import cell_id, replay_cell

GOLDEN = Path(__file__).parent / "fixtures" / "compression_golden_large.json"
SHAPES = ((100003,), (131072,), (257, 513))
SEED = 0
WORLD = 4
ENGINE_CELL = "engine|cgx_default|world4"


def golden_specs():
    """(spec, error_feedback) for every recorded operator configuration."""
    for bits in (2, 3, 4, 5, 8):
        for scaling in ("max", "l2"):
            for bucket_size in (128, 100, 2 ** 30):
                yield CompressionSpec("qsgd", bits=bits, scaling=scaling,
                                      bucket_size=bucket_size), False
    yield CompressionSpec("qsgd", bits=4, wire_dtype_bits=8), False
    for bits in (3, 4):
        yield CompressionSpec("nuq", bits=bits), False
    for ef in (False, True):
        yield CompressionSpec("onebit"), ef


def golden_cells():
    """``replay_cell`` arguments of every recorded operator cell."""
    for spec, ef in golden_specs():
        for shape in SHAPES:
            yield spec, shape, SEED, ef


def engine_gradients() -> list[dict[str, np.ndarray]]:
    """The benchmark suite's transformer inventory at a quarter scale
    (28 tensors, 1.07M elements), one gradient dict per worker."""
    dim, width, vocab = 96, 192, 1000
    inventory = [("embed.weight", (vocab, dim))]
    for b in range(2):
        p = f"block{b}."
        inventory += [
            (p + "ln1.weight", (width,)), (p + "ln1.bias", (width,)),
            (p + "attn.qkv.weight", (width, 3 * width)),
            (p + "attn.qkv.bias", (3 * width,)),
            (p + "attn.proj.weight", (width, width)),
            (p + "attn.proj.bias", (width,)),
            (p + "ln2.weight", (width,)), (p + "ln2.bias", (width,)),
            (p + "mlp.fc1.weight", (width, 4 * width)),
            (p + "mlp.fc1.bias", (4 * width,)),
            (p + "mlp.fc2.weight", (4 * width, width)),
            (p + "mlp.fc2.bias", (width,)),
        ]
    inventory.append(("head.weight", (dim, vocab)))
    data = np.random.default_rng([SEED, 101])
    return [{name: 0.01 * data.standard_normal(shape, dtype=np.float32)
             for name, shape in inventory}
            for _ in range(WORLD)]


def replay_engine() -> dict:
    """``reduce`` then ``reduce_overlapped`` on one engine."""
    grads = engine_gradients()
    engine = CommunicationEngine(CGXConfig.cgx_default())
    record = {}
    for k, kind in enumerate(("reduce", "reduce_overlapped")):
        rng = np.random.default_rng([SEED, 202, k])
        outputs, report = getattr(engine, kind)(grads, rng)
        digest = hashlib.sha256()
        for output in outputs:
            for name, tensor in output.items():
                digest.update(name.encode())
                digest.update(str(tensor.dtype).encode())
                digest.update(np.ascontiguousarray(tensor).tobytes())
        record[kind] = {"outputs": digest.hexdigest()[:16],
                        "wire_bytes": int(report.wire_bytes)}
    return record


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_large_golden_covers_every_cell(recorded):
    assert set(recorded) == \
        {cell_id(*cell) for cell in golden_cells()} | {ENGINE_CELL}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_quantizers_replay_the_parent_on_large_tensors(shape, recorded):
    for spec, ef in golden_specs():
        key = cell_id(spec, shape, SEED, ef)
        assert replay_cell(spec, shape, SEED, ef) == recorded[key], key


def test_engine_reduce_replays_the_parent(recorded):
    assert replay_engine() == recorded[ENGINE_CELL]
