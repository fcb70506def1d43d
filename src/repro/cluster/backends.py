"""Communication backend cost models: SHM, NCCL, MPI, Gloo.

The paper compares three point-to-point backends under the CGX engine
(Figure 11), and names Gloo as the one it did not adopt.  All of them
move the same bytes over the same physical links; they differ in
software overheads, which :meth:`repro.cluster.network.Network.transfer`
applies:

* **SHM** — CGX's UNIX shared-memory backend: one mapped copy through a
  pre-registered segment, CUDA-IPC sync, lowest per-message latency.
* **NCCL** — p2p primitives through NCCL; extra staging copy into
  NCCL's internal FIFO buffers and higher launch latency.
* **MPI** — GPU-aware MPI; requires a host/device synchronization per
  operation because the library's internal transfers are opaque
  (Section 4, "Backend Details").
* **Gloo** — CPU-mediated: every transfer crosses host memory.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BackendModel", "BACKENDS", "get_backend"]


@dataclass(frozen=True)
class BackendModel:
    """Software costs a backend adds on top of the physical topology."""

    name: str
    alpha: float             # per-message software latency (s)
    copy_factor: float       # bandwidth multiplier for extra staging copies
    per_op_overhead: float   # fixed cost per collective invocation (s)
    sync_per_op: float       # host/device sync per op (s); MPI and Gloo


BACKENDS: dict[str, BackendModel] = {
    # CGX shared-memory transport: single copy, cheap IPC sync.
    "shm": BackendModel("shm", alpha=6e-6, copy_factor=1.0,
                        per_op_overhead=4e-6, sync_per_op=0.0),
    # NCCL p2p: internal FIFO staging and launch overhead.
    "nccl": BackendModel("nccl", alpha=12e-6, copy_factor=1.5,
                         per_op_overhead=8e-6, sync_per_op=0.0),
    # GPU-aware MPI: staging plus a host/device sync per operation.
    "mpi": BackendModel("mpi", alpha=20e-6, copy_factor=1.5,
                        per_op_overhead=8e-6, sync_per_op=30e-6),
    # Gloo: CPU-mediated transport — every transfer crosses host memory
    # with an extra copy and higher latency (the paper found NCCL beat
    # both OpenMPI and Gloo, so neither is a default anywhere).
    "gloo": BackendModel("gloo", alpha=30e-6, copy_factor=2.0,
                         per_op_overhead=12e-6, sync_per_op=10e-6),
}


def get_backend(name: str) -> BackendModel:
    if name not in BACKENDS:
        raise KeyError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
    return BACKENDS[name]
