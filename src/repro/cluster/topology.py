"""Interconnect topologies: links, routes, and machine wiring.

A :class:`Topology` is a set of directed :class:`Link` objects plus a
route table mapping ``(src_gpu, dst_gpu)`` to the link sequence a
transfer occupies.  Builders reproduce the paper's machines:

* :func:`pcie_dual_root` — the commodity RTX boxes (Figure 8): two NUMA
  roots bridged by QPI, GPUs hanging off PCIe with *no* GPUDirect, so
  every peer transfer is staged through host memory (a shared resource,
  which is where the measured 13-16 GB/s point-to-point collapses to
  ~1 GB/s of all-reduce bandwidth under 8-way contention).
* :func:`nvlink_mesh` — DGX-1-style backbone ring in a hypercube mesh;
  dedicated GPU-to-GPU links, no host staging.
* :func:`multinode` — several single-node topologies joined by Ethernet
  NICs (the Genesis multi-node experiments of Table 5).

Every link fact the machines share is one constant below; the per-box
PCIe and host-memory bandwidths are :class:`~repro.cluster.machine.Machine`
fields, because Table 2's boxes differ in them.  A topology only states
links and routes: :meth:`repro.cluster.network.Network.transfer` is the
one place a message is priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Link", "Topology", "pcie_dual_root", "nvlink_mesh", "multinode"]

#: PCIe hop latency (GPU <-> root complex)
PCIE_LATENCY = 2e-6
#: host-memory staging hop latency, per NUMA root
HOST_MEMORY_LATENCY = 0.5e-6
#: the QPI bridge between the two NUMA roots of a commodity box
QPI_BANDWIDTH = 11e9
QPI_LATENCY = 1.5e-6
#: one NVLink ring edge (Table 2: DGX-1 and A6000 boxes, 100 GBps)
NVLINK_BANDWIDTH = 100e9
NVLINK_LATENCY = 1e-6
#: Table 5's inter-node Ethernet: "5 GBps" is 5 gigabit/s of TCP
#: throughput, ~0.625 GB/s — what collapses the uncompressed multi-node
#: baseline and gives CGX its up-to-10x speedups there
ETHERNET_BANDWIDTH = 0.625e9
ETHERNET_LATENCY = 30e-6


@dataclass(frozen=True)
class Link:
    """A directed communication resource."""

    name: str
    bandwidth: float  # bytes per second
    latency: float    # seconds per traversal

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"link {self.name}: latency must be non-negative")


@dataclass
class Topology:
    """Directed-link graph with explicit routes between GPUs."""

    name: str
    n_gpus: int
    links: dict[str, Link]
    routes: dict[tuple[int, int], list[str]]
    node_of: list[int] = field(default_factory=list)   # node index per GPU
    numa_of: list[int] = field(default_factory=list)   # NUMA group per GPU
    staged_through_host: bool = False  # no GPUDirect: extra host copies
    #: optional detour routes per (src, dst); an adaptive network may pick
    #: one of these instead of the primary route when it finishes earlier
    #: under current contention (e.g. the long way around an NVLink ring)
    alt_routes: dict[tuple[int, int], list[list[str]]] = \
        field(default_factory=dict)

    def __post_init__(self):
        if not self.node_of:
            self.node_of = [0] * self.n_gpus
        if not self.numa_of:
            self.numa_of = [0] * self.n_gpus
        for (src, dst), path in self.routes.items():
            for link_name in path:
                if link_name not in self.links:
                    raise KeyError(
                        f"route {src}->{dst} references unknown link {link_name}"
                    )
        for (src, dst), paths in self.alt_routes.items():
            if (src, dst) not in self.routes:
                raise KeyError(
                    f"alternate for unrouted pair {src}->{dst}")
            for path in paths:
                for link_name in path:
                    if link_name not in self.links:
                        raise KeyError(
                            f"alternate route {src}->{dst} references "
                            f"unknown link {link_name}")

    def path(self, src: int, dst: int) -> list[Link]:
        """Links a transfer from ``src`` to ``dst`` occupies, in order."""
        if src == dst:
            return []
        try:
            return [self.links[n] for n in self.routes[(src, dst)]]
        except KeyError:
            raise KeyError(f"no route {src}->{dst} in topology {self.name}") from None

    def candidate_paths(self, src: int, dst: int) -> list[list[Link]]:
        """Primary route first, then any registered detours."""
        primary = self.path(src, dst)
        if not primary:
            return []
        candidates = [primary]
        for alt in self.alt_routes.get((src, dst), []):
            candidates.append([self.links[n] for n in alt])
        return candidates

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth of the route (no contention)."""
        path = self.path(src, dst)
        if not path:
            return float("inf")
        return min(link.bandwidth for link in path)

    def n_nodes(self) -> int:
        return max(self.node_of) + 1

    def gpus_on_node(self, node: int) -> list[int]:
        return [g for g in range(self.n_gpus) if self.node_of[g] == node]

    def describe(self) -> str:
        """ASCII rendering of the topology (Figure 8 reproduction)."""
        lines = [f"Topology {self.name}: {self.n_gpus} GPUs, "
                 f"{self.n_nodes()} node(s)"]
        for node in range(self.n_nodes()):
            gpus = self.gpus_on_node(node)
            numa_groups: dict[int, list[int]] = {}
            for gpu in gpus:
                numa_groups.setdefault(self.numa_of[gpu], []).append(gpu)
            lines.append(f"  node {node}:")
            for numa, members in sorted(numa_groups.items()):
                tags = " ".join(f"GPU{g}" for g in members)
                lines.append(f"    NUMA{numa}: {tags}")
        shared = sorted({link.name.rsplit(".", 1)[0] for link in
                         self.links.values()})
        lines.append(f"  links: {', '.join(shared)}")
        if self.staged_through_host:
            lines.append("  (no GPUDirect: peer transfers staged via host memory)")
        return "\n".join(lines)


def _bidirectional(links: dict[str, Link], base: str, bandwidth: float,
                   latency: float) -> tuple[str, str]:
    """Register an up/down directed link pair; return their names."""
    up, down = f"{base}.up", f"{base}.down"
    links[up] = Link(up, bandwidth, latency)
    links[down] = Link(down, bandwidth, latency)
    return up, down


def pcie_dual_root(
    n_gpus: int = 8,
    pcie_bandwidth: float = 14e9,
    host_bandwidth: float = 24e9,
    roots: int = 2,
    name: str = "pcie-dual-root",
) -> Topology:
    """Commodity server: NUMA roots with GPUs on PCIe, QPI bridge.

    Matches Figure 8 with ``roots=2``: GPUs ``0..n/2-1`` on NUMA 0, the
    rest on NUMA 1.  ``roots=1`` models small boxes (or ≤4-GPU subsets
    of the 8-GPU machines, which typically fit one root complex).  Host
    memory per root is a shared resource; all staged peer traffic in a
    root contends on it.
    """
    if roots not in (1, 2):
        raise ValueError("roots must be 1 or 2")
    if roots == 2 and n_gpus % 2:
        raise ValueError("dual-root layout expects an even GPU count")
    half = n_gpus // roots
    links: dict[str, Link] = {}
    for gpu in range(n_gpus):
        _bidirectional(links, f"pcie.g{gpu}", pcie_bandwidth, PCIE_LATENCY)
    for root in range(roots):
        _bidirectional(links, f"hostmem.r{root}", host_bandwidth,
                       HOST_MEMORY_LATENCY)
    if roots == 2:
        _bidirectional(links, "qpi", QPI_BANDWIDTH, QPI_LATENCY)

    routes: dict[tuple[int, int], list[str]] = {}
    numa_of = [0 if gpu < half else 1 for gpu in range(n_gpus)]
    for src in range(n_gpus):
        for dst in range(n_gpus):
            if src == dst:
                continue
            src_root, dst_root = numa_of[src], numa_of[dst]
            path = [f"pcie.g{src}.up", f"hostmem.r{src_root}.up"]
            if src_root != dst_root:
                qpi_dir = "up" if src_root == 0 else "down"
                path.append(f"qpi.{qpi_dir}")
                path.append(f"hostmem.r{dst_root}.down")
            path.append(f"pcie.g{dst}.down")
            routes[(src, dst)] = path
    return Topology(name, n_gpus, links, routes, numa_of=numa_of,
                    staged_through_host=True)


def nvlink_mesh(n_gpus: int = 8, name: str = "nvlink-mesh") -> Topology:
    """DGX-style NVLink fabric: dedicated peer links, GPUDirect enabled.

    The DGX-1 backbone-ring-in-hypercube-mesh is modeled as dedicated
    directed links between ring neighbors (the links collective
    algorithms actually use) plus two-hop routes for non-neighbors.
    """
    links: dict[str, Link] = {}
    for gpu in range(n_gpus):
        nxt = (gpu + 1) % n_gpus
        _bidirectional(links, f"nvlink.g{gpu}g{nxt}", NVLINK_BANDWIDTH,
                       NVLINK_LATENCY)

    def edge(a: int, b: int) -> str:
        """Directed link name for the ring edge between neighbors a->b."""
        if (a + 1) % n_gpus == b:
            return f"nvlink.g{a}g{b}.up"
        if (b + 1) % n_gpus == a:
            return f"nvlink.g{b}g{a}.down"
        raise ValueError(f"{a} and {b} are not ring neighbors")

    def walk(src: int, dst: int, step: int) -> list[str]:
        path, here = [], src
        while here != dst:
            nxt = (here + step) % n_gpus
            path.append(edge(here, nxt))
            here = nxt
        return path

    routes: dict[tuple[int, int], list[str]] = {}
    alt_routes: dict[tuple[int, int], list[list[str]]] = {}
    for src in range(n_gpus):
        for dst in range(n_gpus):
            if src == dst:
                continue
            # route the short way around the ring
            fwd = (dst - src) % n_gpus
            step = 1 if fwd <= n_gpus - fwd else -1
            routes[(src, dst)] = walk(src, dst, step)
            if n_gpus >= 3:
                # the long way around is a genuine detour an adaptive
                # network can take when the short arc is congested
                alt_routes[(src, dst)] = [walk(src, dst, -step)]
    numa_of = [0 if gpu < n_gpus // 2 else 1 for gpu in range(n_gpus)]
    return Topology(name, n_gpus, links, routes, numa_of=numa_of,
                    staged_through_host=False, alt_routes=alt_routes)


def multinode(node_topologies: list[Topology],
              name: str = "multinode") -> Topology:
    """Join single-node topologies with per-node Ethernet NICs.

    Cross-node transfers traverse: source node exit path -> source NIC
    -> destination NIC -> destination node entry path.
    """
    links: dict[str, Link] = {}
    routes: dict[tuple[int, int], list[str]] = {}
    alt_routes: dict[tuple[int, int], list[list[str]]] = {}
    node_of: list[int] = []
    numa_of: list[int] = []
    offsets: list[int] = []
    total = 0

    for node_idx, topo in enumerate(node_topologies):
        offsets.append(total)
        prefix = f"n{node_idx}."
        for link_name, link in topo.links.items():
            links[prefix + link_name] = Link(prefix + link_name,
                                             link.bandwidth, link.latency)
        for (src, dst), path in topo.routes.items():
            routes[(total + src, total + dst)] = [prefix + p for p in path]
        for (src, dst), paths in topo.alt_routes.items():
            alt_routes[(total + src, total + dst)] = \
                [[prefix + p for p in path] for path in paths]
        _bidirectional(links, f"eth.n{node_idx}", ETHERNET_BANDWIDTH,
                       ETHERNET_LATENCY)
        node_of.extend([node_idx] * topo.n_gpus)
        numa_of.extend(topo.numa_of)
        total += topo.n_gpus

    # Cross-node routes: GPU -> host (if staged) -> NIC -> NIC -> host -> GPU
    for src_node, src_topo in enumerate(node_topologies):
        for dst_node, dst_topo in enumerate(node_topologies):
            if src_node == dst_node:
                continue
            for src_local in range(src_topo.n_gpus):
                for dst_local in range(dst_topo.n_gpus):
                    src = offsets[src_node] + src_local
                    dst = offsets[dst_node] + dst_local
                    path = [f"n{src_node}.pcie.g{src_local}.up"] if \
                        src_topo.staged_through_host else []
                    path.append(f"eth.n{src_node}.up")
                    path.append(f"eth.n{dst_node}.down")
                    if dst_topo.staged_through_host:
                        path.append(f"n{dst_node}.pcie.g{dst_local}.down")
                    routes[(src, dst)] = path
    staged = any(t.staged_through_host for t in node_topologies)
    return Topology(name, total, links, routes, node_of=node_of,
                    numa_of=numa_of, staged_through_host=staged,
                    alt_routes=alt_routes)
