"""Re-record ``timing_golden.json`` on the simulator of another tree.

Usage, from the repository root::

    git clone -q . /tmp/old && git -C /tmp/old checkout <old commit>
    python tests/fixtures/record_timing_golden.py /tmp/old

The replay functions are this checkout's ``tests/test_timing_golden.py``
(so newly added entries are recorded too); the simulator they drive is
``<old tree>/src``.  Record only on a clean checkout of the tree *before*
the change under test: a fixture recorded on the change itself compares
the change with itself, so pointing the script at this checkout is
refused.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def record(argv: list[str], test_module: str, usage: str) -> int:
    """Dump ``<test_module>.replay_all()``, run on ``<old tree>/src``, to
    the module's ``GOLDEN`` path."""
    if len(argv) != 1:
        print(usage, file=sys.stderr)
        return 2
    old = Path(argv[0]).resolve()
    if old == REPO:
        print("refusing to record the working tree against itself",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(old / "src"))
    import repro

    source = Path(repro.__file__).resolve().parent
    if source != old / "src" / "repro":
        print(f"repro resolved to {source}, not {old}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location(
        test_module, HERE.parent / f"{test_module}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(module.GOLDEN, "w") as handle:
        json.dump(module.replay_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {module.GOLDEN} on {source}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:], "test_timing_golden", __doc__))
