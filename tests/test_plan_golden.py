"""Golden replay of step planning: every production (config, plan mode)
pair packages every model exactly as the recorded parent did.

``tests/fixtures/plan_golden.json`` was recorded on a clean checkout of
2f83d21 (before ``CGXConfig.fuse_filtered`` was removed) by running
:func:`replay_all` with that tree on ``PYTHONPATH``.  Each entry is the
sha256 of one ``perf.plan_step_packages`` result as
``[(name, numel, spec)]``, for every ``available_specs()`` model under
every config the CLI, the benchmarks and the fleet scheduler plan with.
Re-record with ``python tests/fixtures/record_plan_golden.py <clean
checkout of the old tree>``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import grace_config
from repro.compression import CompressionSpec
from repro.core import CGXConfig, qnccl_config
from repro.models import available_specs, build_spec
from repro.sched import JobSpec
from repro.training import perf

GOLDEN = Path(__file__).parent / "fixtures" / "plan_golden.json"


def _powersgd() -> CGXConfig:
    # the CLI's ``simulate --method powersgd`` config
    return CGXConfig(backend="shm", scheme="sra",
                     compression=CompressionSpec("powersgd", rank=4,
                                                 error_feedback=True))


def _job(bits: int):
    return lambda: JobSpec(1, "resnet50", 2, 0.0, 1, bits=bits).build_config()[0]


#: label -> (config factory, plan mode)
CONFIGS = {
    "cgx_default|128": (lambda: CGXConfig.cgx_default(128), "cgx"),
    "cgx_default|1024": (lambda: CGXConfig.cgx_default(1024), "cgx"),
    "baseline_nccl": (CGXConfig.baseline_nccl, "fused"),
    "qnccl": (qnccl_config, "fused"),
    "grace": (grace_config, "fused"),
    "powersgd": (_powersgd, "cgx"),
    **{f"job|bits={bits}": (_job(bits), "cgx") for bits in (2, 4, 8)},
}


def replay(label: str) -> dict:
    factory, plan_mode = CONFIGS[label]
    rows = {}
    for model in available_specs():
        packages = perf.plan_step_packages(build_spec(model), factory(),
                                           plan_mode)
        plan = [(p.name, p.numel, dataclasses.asdict(p.spec))
                for p in packages]
        rows[model] = hashlib.sha256(
            json.dumps(plan, sort_keys=True).encode()).hexdigest()
    return rows


def replay_all() -> dict:
    """Everything the fixture records (the recorder dumps this as JSON)."""
    return {label: replay(label) for label in CONFIGS}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", CONFIGS)
def test_plans_replay_the_parent(label, recorded):
    assert replay(label) == recorded[label]
