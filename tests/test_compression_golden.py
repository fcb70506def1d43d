"""Golden replay: every operator is bit-identical to the recorded parent.

``tests/fixtures/compression_golden.json`` was recorded on the commit
before the one-class-per-method refactor (PR 17's parent): for every
registered method x ``probe_specs(method)`` x ``PROBE_SHAPES`` x seeds
{0, 1, 2}, three successive ``compress`` calls under one key (PowerSGD's
warm start and DGC's momentum are exercised), bare and — for the methods
that require it — through :class:`ErrorFeedback`.  Each call records the
sha256 of the serialized payload, ``nbytes`` and the sha256 of the
decompressed tensor; each cell records the shared generator's state
afterwards.  A refactor of ``repro.compression`` that moves any of them
changed the wire, the numerics or the rng consumption.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.abstract import PROBE_SHAPES, default_registry, probe_specs
from repro.compression import ErrorFeedback, make_compressor
from repro.core.serialization import serialize_payload, spec_to_dict

GOLDEN = Path(__file__).parent / "fixtures" / "compression_golden.json"
SEEDS = (0, 1, 2)
CALLS = 3


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def golden_cells():
    """(spec, shape, seed, error_feedback) for every recorded cell."""
    for method, cls in default_registry().items():
        contract = cls.contract
        wrapped = (False, True) if (contract.requires_error_feedback
                                    and not contract.self_error_feedback) \
            else (False,)
        for spec in probe_specs(method):
            for shape in PROBE_SHAPES:
                for seed in SEEDS:
                    for ef in wrapped:
                        yield spec, shape, seed, ef


def cell_id(spec, shape, seed, ef) -> str:
    params = json.dumps(spec_to_dict(spec), sort_keys=True)
    return f"{params}|{'x'.join(map(str, shape))}|seed{seed}|ef{int(ef)}"


def replay_cell(spec, shape, seed, ef) -> dict:
    """Run one cell; the record layout of the fixture."""
    compressor = make_compressor(spec)
    if ef:
        compressor = ErrorFeedback(compressor)
    data = np.random.default_rng([seed, 17])
    rng = np.random.default_rng(seed)
    calls = []
    for _ in range(CALLS):
        array = data.standard_normal(shape).astype(np.float32)
        compressed = compressor.compress(array, rng, key="golden")
        restored = np.asarray(compressor.decompress(compressed))
        calls.append([_sha(serialize_payload(compressed)), compressed.nbytes,
                      _sha(restored.tobytes()), str(restored.dtype)])
    state = rng.bit_generator.state
    return {"calls": calls,
            "rng": [state["state"]["state"], state["state"]["inc"],
                    state["has_uint32"], state["uinteger"]]}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(recorded):
    assert set(recorded) == {cell_id(*cell) for cell in golden_cells()}


@pytest.mark.parametrize("method", sorted(default_registry()))
def test_operator_replays_the_parent_bit_for_bit(method, recorded):
    cells = [c for c in golden_cells() if c[0].method == method]
    assert cells
    for spec, shape, seed, ef in cells:
        key = cell_id(spec, shape, seed, ef)
        assert replay_cell(spec, shape, seed, ef) == recorded[key], key
