"""TileLink overlapped kernel zoo.

Each module builds one of the paper's workloads from tile-centric
primitives:

* :mod:`repro.kernels.ag_gemm` — AllGather + GEMM (pull/push/DMA resource
  mappings; §5, Figure 8 left)
* :mod:`repro.kernels.gemm_rs` — GEMM + ReduceScatter (Figure 4's fused
  ring kernel and the hybrid DMA-scatter variant; Figure 8 middle)
* :mod:`repro.kernels.ag_moe` — AllGather + MoE GroupGEMM with dynamic
  mapping (Figure 5; Figure 9 left)
* :mod:`repro.kernels.moe_rs` — GroupGEMM + Scatter + TopkReduce + RS
  (Figure 9 middle)
* :mod:`repro.kernels.attention` — AllGather-KV + flash attention
  (Figure 6; Figure 10)
* :mod:`repro.kernels.ring_attention` — RingAttention baseline (Figure 10)
* :mod:`repro.kernels.mlp`, :mod:`repro.kernels.moe_layer` — full layers
"""

from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from repro.kernels.ag_moe import AgMoeConfig, ag_moe_overlapped
from repro.kernels.moe_common import MoeRouting, build_moe_routing, random_router_logits
from repro.kernels.moe_rs import MoeRsConfig, moe_rs_overlapped
from repro.kernels.attention import AgAttentionConfig, ag_attention_overlapped
from repro.kernels.ring_attention import ring_attention
from repro.kernels.mlp import MlpConfig, mlp_layer
from repro.kernels.moe_layer import MoeConfig, moe_layer_tilelink

__all__ = [
    "AgAttentionConfig",
    "AgGemmConfig",
    "AgMoeConfig",
    "GemmRsConfig",
    "MlpConfig",
    "MoeConfig",
    "MoeRouting",
    "MoeRsConfig",
    "ag_attention_overlapped",
    "ag_gemm_overlapped",
    "ag_moe_overlapped",
    "build_moe_routing",
    "gemm_rs_overlapped",
    "mlp_layer",
    "moe_layer_tilelink",
    "moe_rs_overlapped",
    "random_router_logits",
    "ring_attention",
]
