"""Re-record ``fault_golden.json`` on the fault runtime of another tree.

Usage, from the repository root::

    git clone -q . /tmp/old && git -C /tmp/old checkout <old commit>
    python tests/fixtures/record_fault_golden.py /tmp/old

The replay functions are this checkout's ``tests/test_fault_golden.py``;
the trainer and fault runtime they drive are ``<old tree>/src``.  As
with ``record_timing_golden.py``, record only on a clean checkout of the
tree *before* the change under test; this checkout is refused.
"""

import sys

from record_timing_golden import record

if __name__ == "__main__":
    sys.exit(record(sys.argv[1:], "test_fault_golden", __doc__))
