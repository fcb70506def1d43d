"""repro: reproduction of CGX (Markov, Ramezani-Kebrya, Alistarh;
MIDDLEWARE 2022) — adaptive system support for communication-efficient
deep learning.

Subpackages:

* :mod:`repro.core` — the CGX engine, DDP wrapper, layer filters,
  adaptive layer-wise compression (Algorithm 1), QNCCL configuration.
* :mod:`repro.compression` — QSGD, TopK+EF, PowerSGD (also the
  PyTorch-native comparison point of Table 6), fake compression.
* :mod:`repro.collectives` — compression-aware SRA/Ring/Tree/Allgather/
  PS/hierarchical allreduce: real data paths and timed schedules.
* :mod:`repro.cluster` — the commodity/cloud multi-GPU simulator.
* :mod:`repro.nn` — the pure-numpy training substrate.
* :mod:`repro.models` — full-size layer inventories of the paper's models.
* :mod:`repro.training` — trainers, recipes, tasks and the step-time
  performance model.
* :mod:`repro.baselines` — the GRACE comparison point.
"""

from repro.compression import CompressionSpec
from repro.core import (
    AdaptiveController,
    CGXConfig,
    CGXDistributedDataParallel,
    CGXSession,
)

__version__ = "1.0.0"

__all__ = [
    "CGXConfig",
    "CGXSession",
    "CGXDistributedDataParallel",
    "AdaptiveController",
    "CompressionSpec",
    "__version__",
]
