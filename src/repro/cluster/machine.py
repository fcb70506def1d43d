"""Machine catalog: the paper's Table 2 systems and cloud instances.

Each :class:`Machine` binds a GPU type, an interconnect topology builder
and (for the cloud experiments) an hourly price.  A machine states only
what sets it apart — its PCIe and host-memory bandwidths; the QPI,
NVLink and Ethernet links every box shares are constants of
:mod:`repro.cluster.topology`.  Topologies for GPU subsets follow the
physical layout: up to four GPUs of a commodity box sit on one NUMA
root; the full eight span two roots bridged by QPI — which is why the
paper observes the worst scaling cliff from 4 to 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import BackendModel
from .gpu import GPUSpec, get_gpu
from .network import Network
from .topology import Topology, multinode, nvlink_mesh, pcie_dual_root

__all__ = ["Machine", "MACHINES", "get_machine", "make_cluster"]


@dataclass(frozen=True)
class Machine:
    """A multi-GPU server configuration."""

    name: str
    gpu_name: str
    n_gpus: int
    interconnect: str              # "pcie" | "nvlink"
    pcie_bandwidth: float = 14e9   # per-GPU PCIe bandwidth (pcie machines)
    host_bandwidth: float = 24e9
    price_per_hour: float = 0.0    # 0 = not a cloud offering
    description: str = ""

    @property
    def gpu(self) -> GPUSpec:
        return get_gpu(self.gpu_name)

    def topology(self, n_gpus: int | None = None) -> Topology:
        n = self.n_gpus if n_gpus is None else n_gpus
        if not 1 <= n <= self.n_gpus:
            raise ValueError(
                f"{self.name} has {self.n_gpus} GPUs, requested {n}"
            )
        name = f"{self.name}-{n}gpu"
        if n == 1:
            # degenerate single-GPU "topology" with no links
            return Topology(name, 1, {}, {})
        if self.interconnect == "nvlink":
            return nvlink_mesh(n, name=name)
        return pcie_dual_root(
            n,
            pcie_bandwidth=self.pcie_bandwidth,
            host_bandwidth=self.host_bandwidth,
            roots=2 if n > 4 else 1,
            name=name,
        )

    def network(self, backend: BackendModel | str = "shm") -> Network:
        return Network(self.topology(), backend)


MACHINES: dict[str, Machine] = {
    # Table 2 systems -----------------------------------------------------
    "rtx3090-8x": Machine(
        "rtx3090-8x", "RTX3090", 8, "pcie", pcie_bandwidth=14e9,
        description="8x RTX 3090 commodity workstation (bus only, 13-16 GBps)"),
    "rtx2080-8x": Machine(
        "rtx2080-8x", "RTX2080Ti", 8, "pcie", pcie_bandwidth=7e9,
        host_bandwidth=14e9,
        description="8x RTX 2080 Ti commodity workstation (6-8 GBps bus)"),
    "dgx1": Machine(
        "dgx1", "V100", 8, "nvlink",
        description="NVIDIA DGX-1: 8x V100, NVLink backbone ring, 100 GBps"),
    "a6000-8x": Machine(
        "a6000-8x", "A6000", 8, "nvlink",
        description="8x A6000 server with NVLink, 100 GBps"),
    # Cloud instances (Table 4) -------------------------------------------
    "genesis-4x3090": Machine(
        "genesis-4x3090", "RTX3090", 4, "pcie",
        # "10 GBps intra-node" is the aggregate across the 4 GPUs of the
        # virtualized instance: ~2.5 GB/s effective per GPU.
        pcie_bandwidth=2.5e9, host_bandwidth=10e9, price_per_hour=6.8,
        description="Genesis Cloud 4x RTX 3090, 10 GBps intra-node"),
    "aws-p3.8xlarge": Machine(
        "aws-p3.8xlarge", "V100", 4, "nvlink", price_per_hour=12.2,
        description="AWS p3.8xlarge: 4x V100 with NVLink"),
    "aws-p3.16xlarge": Machine(
        "aws-p3.16xlarge", "V100", 8, "nvlink", price_per_hour=24.5,
        description="AWS p3.16xlarge: 8x V100 (DGX-1 equivalent)"),
}


def get_machine(name: str) -> Machine:
    if name not in MACHINES:
        raise KeyError(f"unknown machine {name!r}; choose from {sorted(MACHINES)}")
    return MACHINES[name]


def make_cluster(machine: Machine | str, n_nodes: int) -> Topology:
    """Multi-node cluster of identical machines joined by Ethernet.

    Reproduces the Table 5 setting: four Genesis 4x3090 nodes on the
    "5 GBps" links of :data:`repro.cluster.topology.ETHERNET_BANDWIDTH`.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    nodes = [machine.topology() for _ in range(n_nodes)]
    return multinode(nodes, name=f"{machine.name}-x{n_nodes}")
