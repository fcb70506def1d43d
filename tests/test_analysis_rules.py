"""Tests for the numerical-safety linter (REP001..REP006)."""

import os

import pytest

from repro.analysis import RULES, lint_source, run_lint
from repro.analysis.rules import lint_file

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")

RULE_FIXTURES = {
    "REP001": "rep001_float_eq.py",
    "REP002": os.path.join("collectives", "rep002_default_dtype.py"),
    "REP003": "rep003_state_alias.py",
    "REP004": "rep004_mutable_default.py",
    "REP005": "rep005_bare_except.py",
    "REP006": "rep006_chunk_view.py",
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_fixture_triggers_exactly_its_rule(rule):
    findings = lint_file(os.path.join(FIXTURES, RULE_FIXTURES[rule]))
    assert [f.rule for f in findings] == [rule]
    assert findings[0].line > 0
    assert findings[0].snippet


def test_codebase_is_clean_under_the_ruleset():
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    findings = run_lint([src])
    assert findings == [], [f.render() for f in findings]


def test_rep001_requires_a_float_literal():
    assert lint_source("x = a == b\n") == []          # unknown types: silent
    assert lint_source("x = n == 3\n") == []          # int literal: fine
    found = lint_source("x = 0.5 != a\n")
    assert [f.rule for f in found] == ["REP001"]


def test_rep002_only_applies_to_hot_paths():
    src = "import numpy as np\nbuf = np.empty(10)\n"
    assert lint_source(src, path="src/repro/nn/layers.py") == []
    found = lint_source(src, path="src/repro/compression/qsgd.py")
    assert [f.rule for f in found] == ["REP002"]
    # explicit dtype (keyword or positional) is the fix
    ok = "import numpy as np\nbuf = np.empty(10, dtype=np.float32)\n"
    assert lint_source(ok, path="src/repro/compression/qsgd.py") == []
    ok_pos = "import numpy as np\nbuf = np.zeros(10, np.float32)\n"
    assert lint_source(ok_pos, path="src/repro/compression/qsgd.py") == []


def test_rep003_copy_and_fresh_values_are_clean():
    clean = (
        "class S:\n"
        "    def put(self, key, grad):\n"
        "        self._residuals[key] = grad.copy()\n"
        "    def diff(self, key, grad, restored):\n"
        "        self._residuals[key] = grad - restored\n"
    )
    assert lint_source(clean) == []
    dirty = (
        "class S:\n"
        "    def put(self, key, grad):\n"
        "        self._carry[key] = grad\n"
    )
    assert [f.rule for f in lint_source(dirty)] == ["REP003"]
    # conditional expressions alias if either branch does
    conditional = (
        "class S:\n"
        "    def put(self, key, grad, old):\n"
        "        self._carry[key] = grad.copy() if old is None else grad\n"
    )
    assert [f.rule for f in lint_source(conditional)] == ["REP003"]


def test_rep003_ignores_scalar_attribute_config():
    src = (
        "class Opt:\n"
        "    def __init__(self, momentum):\n"
        "        self.momentum = momentum\n"
    )
    assert lint_source(src) == []


def test_rep006_copies_and_output_stores_are_clean():
    # the ring pattern: chunks copied inside the comprehension
    copied = (
        "work = [c.copy() for c in split_chunks(buf, 4)]\n"
        "work[0] += 1\n"
    )
    assert lint_source(copied) == []
    # the SRA output pattern: slice-store into a fresh output buffer
    stores = (
        "out_chunks = [split_chunks(out, 4) for out in outputs]\n"
        "out_chunks[0][1][:] = decoded\n"
    )
    assert lint_source(stores) == []
    # but accumulating through any view path is flagged
    nested = (
        "per_rank = [split_chunks(b, 4) for b in bufs]\n"
        "per_rank[0][1] += update\n"
    )
    assert [f.rule for f in lint_source(nested)] == ["REP006"]
    loop = (
        "for view in split_chunks(buf, 4):\n"
        "    view += 1\n"
    )
    assert [f.rule for f in lint_source(loop)] == ["REP006"]


VIEW_SETUP = (
    "def f(buf, mode):\n"
    "    chunks = split_chunks(buf, 4)\n"
)


@pytest.mark.parametrize("block", [
    "    match mode:\n"
    "        case 1:\n"
    "            chunks[0] += 1\n",
    "    try:\n"
    "        pass\n"
    "    except* ValueError:\n"
    "        chunks[0] += 1\n",
    "    try:\n"
    "        pass\n"
    "    except ValueError:\n"
    "        chunks[0] += 1\n",
], ids=["match", "except-star", "except"])
def test_rep006_reaches_match_cases_and_every_handler(block):
    src = VIEW_SETUP + block
    found = lint_source(src)
    # the in-place statement is the block's last line
    assert [(f.rule, f.line) for f in found] == [("REP006", src.count("\n"))]


def test_rep003_reaches_match_cases_and_star_handlers():
    for block in ("    match mode:\n"
                  "        case _:\n"
                  "            self._residuals[mode] = grad\n",
                  "    try:\n"
                  "        pass\n"
                  "    except* KeyError:\n"
                  "        self._residuals[mode] = grad\n"):
        src = "def put(self, grad, mode):\n" + block
        assert [(f.rule, f.line) for f in lint_source(src)] == [
            ("REP003", src.count("\n"))]


def test_rep006_tracks_async_for_views():
    src = (
        "async def f(buf):\n"
        "    async for view in split_chunks(buf, 4):\n"
        "        view += 1\n"
    )
    assert [(f.rule, f.line) for f in lint_source(src)] == [("REP006", 3)]


def test_fingerprints_are_stable_across_line_shifts():
    a = lint_source("x = 1.0 == y\n", path="m.py")[0]
    b = lint_source("# moved down\n\nx = 1.0 == y\n", path="m.py")[0]
    assert a.fingerprint == b.fingerprint
    assert a.line != b.line


def test_duplicate_lines_get_distinct_fingerprints(tmp_path):
    target = tmp_path / "dup.py"
    target.write_text("a = b == 1.0\na = b == 1.0\n")
    first, second = run_lint([str(target)])
    assert first.fingerprint != second.fingerprint
