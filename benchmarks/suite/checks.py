"""Per-workload correctness checks, counted into ``ops_failed``.

Each predicate looks at one op's (or one round's) outputs; the workloads
record the verdicts in a :class:`Tally` and mark an op failed when any of
its checks fails.  The run prints one verdict line per check name and
exits non-zero on any failure.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["Tally", "replicas_identical", "relative_error", "REL_ERROR_MAX",
           "LOSS_GAP_MAX", "CGX_SPEEDUP_MIN", "fleet_campaign_ok", "digest"]

#: relative L2 error of 4-bit QSGD through SRA (two quantizations) vs the
#: exact mean; ~0.21 on Gaussian gradients
REL_ERROR_MAX = 0.35
#: |loss(mlp_qsgd4) - loss(mlp_none)| at the recipe's step budget
LOSS_GAP_MAX = 0.02
#: Fig. 3: CGX over NCCL throughput on the 8x RTX 3090 box
CGX_SPEEDUP_MIN = 1.8


class Tally:
    """Verdicts per check name: how many ops were checked, how many failed."""

    def __init__(self) -> None:
        self._rows: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        row = self._rows.setdefault(name, [0, 0, ""])
        row[0] += 1
        if not ok:
            row[1] += 1
            row[2] = row[2] or detail
        return bool(ok)

    def verdicts(self) -> list[dict]:
        return [{"check": name, "ok": failed == 0, "checked": checked,
                 "failed": failed, "detail": detail}
                for name, (checked, failed, detail) in self._rows.items()]


def replicas_identical(outputs: list[dict[str, np.ndarray]]) -> bool:
    """Every worker holds bit-identical reduced tensors."""
    reference = outputs[0]
    return all(
        other.keys() == reference.keys()
        and all(np.array_equal(other[name], reference[name])
                for name in reference)
        for other in outputs[1:])


def relative_error(output: dict[str, np.ndarray],
                   exact: dict[str, np.ndarray], names) -> float:
    """Relative L2 error over the compressed tensors ``names``."""
    err = sum(float(np.sum((output[n].astype(np.float64) - exact[n]) ** 2))
              for n in names)
    ref = sum(float(np.sum(exact[n] ** 2)) for n in names)
    return math.sqrt(err / ref) if ref > 0 else 0.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fleet_campaign_ok(metrics, n_jobs: int) -> tuple[bool, str]:
    """Every job completed and Jain fairness is a valid index."""
    if metrics.completed != n_jobs:
        return False, f"{metrics.completed} of {n_jobs} jobs completed"
    if not 0.0 < metrics.fairness <= 1.0:
        return False, f"fairness {metrics.fairness} outside (0, 1]"
    return True, ""
