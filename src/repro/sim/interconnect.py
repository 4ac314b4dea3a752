"""Interconnect model: NVLink/NVSwitch inside a node, NIC links across nodes.

Topology follows the paper's testbed: every device has full-duplex NVLink
through an NVSwitch, so the binding constraints are each device's egress and
ingress bandwidth (H800: ~200 GB/s per direction).  Cross-node traffic goes
through per-GPU NICs with far lower bandwidth and higher latency.

Transfers carry a *protocol*: ``"p2p"`` (copy-engine / NVSHMEM bulk puts,
high efficiency) or ``"nccl"`` (collective protocol with packetization
overhead, lower efficiency).  Protocol efficiency scales the effective
bandwidth, matching how NCCL achieves only a fraction of link peak.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.sim.engine import Awaitable, Simulator, Timeout
from repro.sim.resources import Pipe

PROTOCOLS = ("p2p", "nccl", "nccl_rs")


class Interconnect:
    """Per-device egress/ingress pipes plus inter-node NIC pipes."""

    def __init__(self, sim: Simulator, config: SimConfig):
        self.sim = sim
        self.config = config
        spec = config.spec
        self.egress = [
            Pipe(sim, spec.nvlink_egress, spec.nvlink_latency, f"nvlink.egress[{r}]")
            for r in range(config.world_size)
        ]
        self.ingress = [
            Pipe(sim, spec.nvlink_ingress, spec.nvlink_latency, f"nvlink.ingress[{r}]")
            for r in range(config.world_size)
        ]
        # One NIC per device for cross-node traffic (GPUDirect RDMA style).
        self.nic_out = [
            Pipe(sim, spec.inter_node_bandwidth, spec.inter_node_latency, f"nic.out[{r}]")
            for r in range(config.world_size)
        ]
        self.nic_in = [
            Pipe(sim, spec.inter_node_bandwidth, spec.inter_node_latency, f"nic.in[{r}]")
            for r in range(config.world_size)
        ]
        #: (src, dst, protocol) -> the path, its bandwidth and its latency,
        #: resolved on the route's first transfer
        self._routes: dict[tuple[int, int, str],
                           tuple[list[Pipe], float, float]] = {}

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.config.world_size:
            raise SimulationError(f"rank {rank} out of range")

    def pipes(self, src: int, dst: int) -> list[Pipe]:
        """The pipe chain a ``src -> dst`` transfer must traverse."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return []
        if self.config.same_node(src, dst):
            return [self.egress[src], self.ingress[dst]]
        return [self.nic_out[src], self.nic_in[dst]]

    def protocol_efficiency(self, protocol: str) -> float:
        if protocol == "p2p":
            return self.config.spec.p2p_protocol_efficiency
        if protocol == "nccl":
            return self.config.spec.nccl_protocol_efficiency
        if protocol == "nccl_rs":
            return self.config.spec.nccl_rs_protocol_efficiency
        raise SimulationError(f"unknown protocol {protocol!r}; use one of {PROTOCOLS}")

    def reserve(self, src: int, dst: int, nbytes: float,
                protocol: str = "p2p") -> tuple[float, float]:
        """Jointly reserve the path; returns (start, arrival) times.

        Local (src == dst) transfers complete instantly at the link level —
        the HBM cost of a local copy is charged by the device model instead.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        now = self.sim.now
        if src == dst:
            return now, now
        route = self._routes.get((src, dst, protocol))
        if route is None:
            eff = self.protocol_efficiency(protocol)
            chain = self.pipes(src, dst)
            route = self._routes[src, dst, protocol] = (
                chain, min(p.bandwidth for p in chain) * eff,
                max(p.latency for p in chain))
        chain, bandwidth, latency = route
        occupancy = nbytes / bandwidth
        # pipes are reserved independently (links multiplex transfers, so a
        # slot on the egress side need not align with the ingress slot);
        # the data has arrived once it cleared every pipe on the path
        start = arrival = now
        for p in chain:
            p_start = max(now, p.free_at)
            p.free_at = p_start + occupancy
            p.total_bytes += nbytes
            p.busy_time += occupancy
            start = max(start, p_start)
            arrival = max(arrival, p.free_at)
        return start, arrival + latency

    def transfer(self, src: int, dst: int, nbytes: float,
                 protocol: str = "p2p") -> Awaitable:
        """Awaitable that completes when the bytes land at ``dst``."""
        _start, arrival = self.reserve(src, dst, nbytes, protocol)
        return Timeout(max(0.0, arrival - self.sim.now))

    def min_transfer_time(self, src: int, dst: int, nbytes: float,
                          protocol: str = "p2p") -> float:
        """Contention-free lower bound for a transfer (analytic helpers)."""
        if src == dst:
            return 0.0
        chain = self.pipes(src, dst)
        eff = self.protocol_efficiency(protocol)
        bandwidth = min(p.bandwidth for p in chain) * eff
        return nbytes / bandwidth + max(p.latency for p in chain)
