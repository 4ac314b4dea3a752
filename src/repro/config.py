"""Hardware and simulation configuration.

The reproduction runs on a *simulated* multi-GPU node (:mod:`repro.sim`).
:class:`HardwareSpec` holds the calibrated constants of one device and the
interconnect; :class:`SimConfig` holds knobs of a single simulation run.

The default spec models an NVIDIA H800 SXM node (the paper's testbed):
H100-class compute (132 SMs, ~989 fp16 TFLOPS) with the export-regulation
NVLink cut to 400 GB/s aggregate (~200 GB/s per direction).  The reduced
link bandwidth is what makes communication a first-order cost in the paper
and is essential for reproducing the shape of its results.

Absolute times produced by the simulator are in **seconds** and are only
roughly calibrated; every experiment in the paper is reported as *relative*
performance, which is what we reproduce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace


@dataclass(frozen=True)
class HardwareSpec:
    """Calibrated performance constants for one simulated device + node.

    Bandwidths are bytes/second, latencies and overheads are seconds,
    compute rates are FLOP/second.
    """

    name: str = "H800-SXM"

    # --- compute ---------------------------------------------------------
    n_sms: int = 132
    #: Dense fp16/bf16 tensor-core peak of the whole device.
    tensor_flops: float = 989.0e12
    #: Fraction of peak a well-tuned large GEMM sustains (cuBLAS-class).
    tensor_efficiency: float = 0.75
    #: fp32 CUDA-core peak (vector math: softmax, activations, reductions).
    vector_flops: float = 67.0e12

    # --- memory ----------------------------------------------------------
    hbm_bandwidth: float = 3.35e12
    hbm_efficiency: float = 0.82
    l2_bandwidth: float = 11.0e12
    smem_bandwidth_per_sm: float = 128e9

    # --- intra-node interconnect (NVLink through NVSwitch) ----------------
    #: Per-direction NVLink bandwidth of one device (H800: 400 GB/s bidir).
    nvlink_egress: float = 200e9
    nvlink_ingress: float = 200e9
    nvlink_latency: float = 0.9e-6
    #: Achievable fraction for protocol-driven transfers (NCCL-like).
    #: Calibrated against Table 2's non-overlap times on H800.
    nccl_protocol_efficiency: float = 0.60
    #: NCCL ReduceScatter sustains a higher fraction than AllGather (the
    #: reduction pipeline hides packet handling; also visible in Table 2).
    nccl_rs_protocol_efficiency: float = 0.75
    #: Achievable fraction for raw copy-engine / NVSHMEM bulk transfers.
    p2p_protocol_efficiency: float = 0.64
    #: Aggregate copy bandwidth one SM can drive with ld/st loops.
    sm_copy_bandwidth: float = 14e9

    # --- inter-node interconnect (IB / RoCE NIC per GPU) ------------------
    inter_node_bandwidth: float = 50e9
    inter_node_latency: float = 4.5e-6

    # --- engines / host ----------------------------------------------------
    n_copy_engines: int = 4
    copy_engine_latency: float = 1.6e-6
    kernel_launch_overhead: float = 4.0e-6
    #: Host-driven synchronization (stream wait, event sync, cpu barrier).
    host_sync_overhead: float = 14.0e-6

    # --- synchronization primitives ---------------------------------------
    remote_atomic_latency: float = 1.1e-6
    local_atomic_latency: float = 0.20e-6
    #: Granularity at which a spinning consumer re-checks a signal.
    spin_poll_interval: float = 0.12e-6

    def scaled(self, **overrides: float) -> "HardwareSpec":
        """Return a copy with fields replaced (spec is frozen)."""
        return replace(self, **overrides)

    def fingerprint(self) -> str:
        """Stable short hash over every calibrated field.

        Any field change (``replace(spec, n_sms=...)``) yields a different
        fingerprint, so tuner caches and other persisted results keyed on a
        spec never alias across hardware models or recalibrations.
        """
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: Default single-node testbed spec used across benchmarks.
H800 = HardwareSpec()

#: A100-like spec (used by ablations; 108 SMs, 312 TFLOPS, 600 GB/s NVLink).
A100 = HardwareSpec(
    name="A100-SXM",
    n_sms=108,
    tensor_flops=312e12,
    vector_flops=19.5e12,
    hbm_bandwidth=2.0e12,
    nvlink_egress=300e9,
    nvlink_ingress=300e9,
)


@dataclass
class SimConfig:
    """Per-run knobs of the simulated node.

    Parameters
    ----------
    world_size:
        Number of ranks (devices) in the node / tensor-parallel group.
    spec:
        Device spec; defaults to the H800 node of the paper.
    execute_numerics:
        When True every tile op applies its numpy effect so results can be
        checked against references (tests, examples).  When False only the
        timing side of the simulation runs (benchmarks at paper scale).
    trace:
        Record per-resource busy intervals for timeline / overlap analysis.
    n_nodes:
        Number of nodes; ranks are split evenly across nodes and links
        between ranks on different nodes use the inter-node NIC constants.
    seed:
        Seed for any stochastic workload generation tied to this run.
    """

    world_size: int = 8
    spec: HardwareSpec = field(default_factory=lambda: H800)
    execute_numerics: bool = True
    trace: bool = False
    n_nodes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if self.n_nodes < 1 or self.world_size % self.n_nodes != 0:
            raise ValueError("world_size must divide evenly across n_nodes")

    @property
    def ranks_per_node(self) -> int:
        return self.world_size // self.n_nodes

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)
