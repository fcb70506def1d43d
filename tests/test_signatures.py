"""Settings that no caller sets are constants, not parameters.

A certifier battery is one parameterless run over its grid (sub-grids
and fakes go through the per-cell functions), except where the lint
takes the command line's paths and the benchmark suite pins a keyword;
the adaptive assigners pick from one width ladder.
"""

import inspect
import pkgutil

from repro.analysis.registry import REGISTRY
from repro.core import ASSIGNERS, AdaptiveController

#: the only runner parameters: the lint's paths and the keywords
#: ``benchmarks/suite`` passes
RUNNER_PARAMETERS = {
    "repro.analysis.rules:run_lint": ("paths",),
    "repro.analysis.overlap:verify_overlap": ("worlds",),
    "repro.analysis.sched:verify_sched": ("cases", "with_tag_lint"),
}


def parameters(fn):
    return tuple(inspect.signature(fn).parameters)


def test_battery_runners_take_only_the_pinned_parameters():
    runners = [runner for row in REGISTRY for runner in row.runners]
    assert set(RUNNER_PARAMETERS) <= set(runners)
    assert {runner: parameters(pkgutil.resolve_name(runner))
            for runner in runners} == {
        runner: RUNNER_PARAMETERS.get(runner, ()) for runner in runners}


def test_assigners_and_controller_take_no_width_ladder():
    for fn in (AdaptiveController, *ASSIGNERS.values()):
        assert "bitwidths" not in parameters(fn), fn
        assert "reference_bits" not in parameters(fn), fn
