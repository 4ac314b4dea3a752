"""Vendor-library-style single-device ops on the simulated node.

These model cuBLAS / CUTLASS / torch kernels: closed-form timing (wave
quantization, launch overhead, memory-bound passes) with numpy effects.
The TileLink kernel zoo (:mod:`repro.kernels`) instead builds its compute
from the tile DSL; both run on the same cost model so comparisons are
apples-to-apples.
"""

from repro.ops.gemm import gemm_op, gemm_ref
from repro.ops.group_gemm import (
    fused_group_gemm_op,
    group_gemm_ref,
    per_expert_gemm_op,
)
from repro.ops.attention import (
    attention_ref,
    flash_attention_op,
    naive_attention_op,
)
from repro.ops.topk import topk_reduce_op, topk_route

__all__ = [
    "attention_ref",
    "flash_attention_op",
    "fused_group_gemm_op",
    "gemm_op",
    "gemm_ref",
    "group_gemm_ref",
    "naive_attention_op",
    "per_expert_gemm_op",
    "topk_reduce_op",
    "topk_route",
]
