#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --out``.

    python3 benchmarks/suite/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of the same
commit), B the candidate.  For every (workload, metric) present in both,
prints both values and the ratio B/A.  Marks an end-to-end metric whose
B value is worse than A's by more than the metric's bound (a share of A),
and any exact metric that is not bit-identical.  Exits 1 if anything is
marked or B recorded a failed op, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as catalogue  # noqa: E402

BETTER = {m.name: m.better for m in catalogue.END_TO_END + catalogue.PER_LAYER}


def worsening(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if BETTER[name] == "lower" else -change


def compare(base: dict, new: dict, out=sys.stdout) -> int:
    """Print the table; return the number of marked rows."""
    bounds = base.get("bounds") or {m.name: m.bound
                                    for m in catalogue.END_TO_END}
    marked = 0
    print(f"base A: commit {base['provenance']['commit']} seed "
          f"{base['provenance']['seed']};  B: commit "
          f"{new['provenance']['commit']} seed {new['provenance']['seed']}",
          file=out)
    print(f"{'workload':12s} {'metric':46s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s}  note", file=out)
    for workload, a_entry in base["workloads"].items():
        b_entry = new["workloads"].get(workload)
        if b_entry is None:
            continue
        for section in ("end_to_end", "per_layer"):
            a_values, b_values = a_entry[section], b_entry[section]
            for name, a in a_values.items():
                if name not in b_values or (a == 0 and b_values[name] == 0):
                    continue
                b = b_values[name]
                ratio = f"{b / a:8.4f}" if a else "     n/a"
                note = ""
                if section == "end_to_end":
                    worse = worsening(name, a, b)
                    if worse > bounds[name]:
                        note = (f"WORSE by {worse:.1%} of A "
                                f"(bound {bounds[name]:.0%})")
                elif name in catalogue.EXACT and a != b:
                    note = "EXACT metric differs"
                marked += bool(note)
                print(f"{workload:12s} {name:46s} {a:14.6g} {b:14.6g} "
                      f"{ratio}  {note}", file=out)
        if b_entry["failed"]:
            marked += 1
            print(f"{workload:12s} B recorded {b_entry['failed']} failed ops "
                  f"of {b_entry['attempted']}", file=out)
    print(f"{marked} row(s) marked; ratios are B/A with A as the base",
          file=out)
    return marked


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return 1 if compare(*documents) else 0


if __name__ == "__main__":
    sys.exit(main())
