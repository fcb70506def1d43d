"""Golden replay: every data-path scheme is bit-identical to the recorded parent.

``tests/fixtures/collectives_golden.json`` was recorded on the commit
before the one-send-primitive refactor (PR 18's parent, 07a1dec): for
every row of the cell table at worlds {1, 2, 3, 4, 5, 8} plus
``EXPLICIT_CELLS`` and ``SINGLE_MEMBER_CELLS`` x {qsgd-4, topk+EF, none}
x numel {1, 7, 97, 1000} x {clean, lossy-link}, two successive calls
under one key (error-feedback residuals and quorum carries persist).
Each call records the sha256 of every rank's output and the full
``ReduceStats`` tuple; each cell records the generator state afterwards,
the fault log sha256 and counters, the message matching of the event
log, and the sha256 of each rank's *own* subsequence of the trace
timeline (its sends, its recvs and its buffer/state accesses, in
emission order; absolute byte spans left out).

What the refactor was allowed to move, and nothing else: the parent
booked a payload's bytes at encode time, so a sub-collective with one
member counted a broadcast nobody receives (``wire_bytes`` is compared
against the trace there instead), and ``hier`` dropped the retry
counters of its nested reductions (compared against the ``#retry``
sends there instead).
"""

import hashlib
import json
from collections import Counter
from contextlib import nullcontext
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from repro.collectives import (EXPLICIT_CELLS, SINGLE_MEMBER_CELLS,
                               PartialAllreduce, run_cell, scheme_cells)
from repro.collectives.trace import TraceEvent, capture, match_messages
from repro.compression import CompressionSpec, ErrorFeedback, make_compressor
from repro.faults import PlanRuntime, inject_data_path, make_campaign

GOLDEN = Path(__file__).parent / "fixtures" / "collectives_golden.json"
WORLDS = (1, 2, 3, 4, 5, 8)
NUMELS = (1, 7, 97, 1000)
MODES = ("clean", "lossy-link")
CALLS = 2
METHODS = {
    "qsgd-4": CompressionSpec("qsgd", bits=4, bucket_size=32),
    "topk+EF": CompressionSpec("topk", density=0.1, error_feedback=True),
    "none": CompressionSpec("none"),
}
#: ReduceStats fields after (scheme, world_size, numel), in field order
STAT_FIELDS = ("wire_bytes", "compress_calls", "decompress_calls",
               "max_recompressions", "retries", "retransmit_bytes")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def probed_cells():
    """The 45 cells of the wire-conservation probe."""
    return (scheme_cells(WORLDS) + list(EXPLICIT_CELLS)
            + list(SINGLE_MEMBER_CELLS.values()))


def golden_cells():
    for cell in probed_cells():
        for method in METHODS:
            for numel in NUMELS:
                for mode in MODES:
                    yield cell, method, numel, mode


def cell_id(cell, method, numel, mode) -> str:
    placement = "".join(map(str, cell.node_of or ()))
    quorum = "".join(map(str, cell.participants or ()))
    return (f"{cell.scheme}@{cell.world}/n{placement}/q{quorum}"
            f"|{method}|{numel}|{mode}")


def one_member_subcollective(cell) -> bool:
    """Whether some (sub-)collective of ``cell`` runs with one member."""
    if cell.scheme == "hier" and len(set(cell.node_of)) > 1:
        return min(Counter(cell.node_of).values()) == 1
    if cell.scheme == "partial":
        return len(cell.participants) == 1
    return cell.world == 1


def _owner(item) -> int:
    if isinstance(item, TraceEvent):
        return item.src if item.kind == "send" else item.dst
    return item.rank


def _describe(item) -> tuple:
    if isinstance(item, TraceEvent):
        return (item.kind, item.step, item.src, item.dst, item.nbytes,
                item.tag)
    return (item.kind, item.space, item.buffer, item.tag)


def run_golden_cell(cell, method, numel, mode, traced=True):
    """Run one cell: ``(trace, [(outputs, stats)] per call, rng, runtime)``
    (``trace`` is ``None`` when ``traced`` is false: no capture runs)."""
    spec = METHODS[method]
    compressor = make_compressor(spec)
    if spec.error_feedback:
        compressor = ErrorFeedback(compressor)
    data = np.random.default_rng([numel, cell.world, 23])
    rng = np.random.default_rng(5)
    reducer = PartialAllreduce(cell.world)
    runtime = None
    if mode == "lossy-link":
        # the campaign slows link 0->1, so its plan needs two ranks
        runtime = PlanRuntime(make_campaign(
            "lossy-link", world=max(2, cell.world), seed=3))
        runtime.advance(4)
    results = []
    with capture() if traced else nullcontext() as trace:
        for _ in range(CALLS):
            buffers = [data.standard_normal(numel).astype(np.float32)
                       for _ in range(cell.world)]
            if runtime is None:
                results.append(run_cell(cell, buffers, compressor, rng,
                                        key="golden", reducer=reducer))
            else:
                with inject_data_path(runtime):
                    results.append(run_cell(cell, buffers, compressor, rng,
                                            key="golden", reducer=reducer))
    return trace, results, rng, runtime


#: the record fields a run without a capture still produces
TRACE_FREE = ("calls", "rng", "faults")


def trace_free_record(results, rng, runtime) -> dict:
    """The record's ``calls``, ``rng`` and (under a campaign) ``faults``."""
    state = rng.bit_generator.state["state"]
    record = {
        "calls": [[[_sha(np.ascontiguousarray(out).tobytes())
                    for out in outputs], list(astuple(stats))]
                  for outputs, stats in results],
        "rng": _sha(repr((state["state"], state["inc"])).encode()),
    }
    if runtime is not None:
        counters = runtime.counters.to_dict()
        record["faults"] = [_sha(runtime.log_bytes()),
                            {k: v for k, v in counters.items() if v}]
    return record


def record_of(cell, trace, results, rng, runtime) -> dict:
    """The fixture's record layout for one :func:`run_golden_cell` run."""
    match = match_messages(trace.events)
    per_rank: dict[int, list] = {rank: [] for rank in range(cell.world)}
    for item in trace.timeline:
        per_rank[_owner(item)].append(_describe(item))
    return {
        **trace_free_record(results, rng, runtime),
        "match": [len(match.pairs), sum(match.orphan_sends.values()),
                  sum(match.orphan_recvs.values()), match.early_recvs,
                  _sha(repr(match.pairs).encode())],
        "trace": [_sha(repr(per_rank[rank]).encode())
                  for rank in range(cell.world)],
    }


def replay_cell(cell, method, numel, mode) -> dict:
    """Run one cell and describe it (what the recording script calls)."""
    return record_of(cell, *run_golden_cell(cell, method, numel, mode))


def masked(record: dict, cell, mode) -> dict:
    """``record`` without the stats the refactor deliberately corrected."""
    moved = set()
    if one_member_subcollective(cell):
        moved.add("wire_bytes")
    if cell.scheme == "hier" and mode == "lossy-link":
        moved.update(("retries", "retransmit_bytes"))
    drop = {3 + STAT_FIELDS.index(name) for name in moved}
    calls = [[outs, [v for i, v in enumerate(stats) if i not in drop]]
             for outs, stats in record["calls"]]
    return {**record, "calls": calls}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(recorded):
    assert set(recorded) == {cell_id(*cell) for cell in golden_cells()}
    assert len(probed_cells()) == 45


@pytest.mark.parametrize("cell", probed_cells(),
                         ids=lambda c: cell_id(c, "", "", "").split("|")[0])
def test_scheme_replays_the_parent_bit_for_bit(cell, recorded):
    for key in (k for k in golden_cells() if k[0] == cell):
        trace, results, rng, runtime = run_golden_cell(*key)
        record = record_of(cell, trace, results, rng, runtime)
        mode = key[3]
        assert masked(record, cell, mode) \
            == masked(recorded[cell_id(*key)], cell, mode), cell_id(*key)
        # the masked fields, pinned by construction instead: bytes are
        # the traced sends, retries are the ``#retry`` sends
        stats = [s for _, s in results]
        retry_sends = [e for e in trace.sends if "#retry" in e.tag]
        assert sum(s.wire_bytes for s in stats) == trace.send_bytes(), key
        assert sum(s.retries for s in stats) == len(retry_sends), key
        assert sum(s.retransmit_bytes for s in stats) \
            == sum(e.nbytes for e in retry_sends), key
        if runtime is not None:
            assert len(retry_sends) == runtime.counters.retries, key


@pytest.mark.parametrize("cell", probed_cells(),
                         ids=lambda c: cell_id(c, "", "", "").split("|")[0])
def test_scheme_replays_the_parent_untraced(cell, recorded):
    """The same cells with no capture installed: outputs, stats, the
    generator and the fault log match the one fixture the traced replay
    reads, so a traced and an untraced run of the data path cannot
    drift apart."""
    for key in (k for k in golden_cells() if k[0] == cell):
        trace, results, rng, runtime = run_golden_cell(*key, traced=False)
        assert trace is None
        record = trace_free_record(results, rng, runtime)
        want = {k: v for k, v in recorded[cell_id(*key)].items()
                if k in TRACE_FREE}
        mode = key[3]
        assert masked(record, cell, mode) == masked(want, cell, mode), \
            cell_id(*key)
