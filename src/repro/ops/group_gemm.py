"""Grouped (MoE expert) GEMM library kernels.

Two execution strategies, matching the Figure 9 baselines:

* :func:`per_expert_gemm_op` — the cuBLAS/CUTLASS+NCCL way: one GEMM launch
  per expert.  Small per-expert token counts mean tiny grids (resource
  quantization inefficiency) and E kernel-launch overheads; with E=32 this
  is what vLLM's fusion beats by ~10x in the paper.
* :func:`fused_group_gemm_op` — the vLLM-style fused kernel: a single
  launch whose grid covers every expert's (padded) token tiles, with the
  token gather fused into the main loop.

Both produce ``out[i] = tokens[sorted_token_ids[i]] @ W[expert_of(i)]`` for
the expert-grouped row layout produced by
:func:`repro.mapping.dynamic.build_moe_consumer_mapping`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout


def group_gemm_ref(tokens: np.ndarray, weights: np.ndarray,
                   sorted_token_ids: np.ndarray,
                   expert_of_row: np.ndarray) -> np.ndarray:
    """Gold-standard grouped GEMM: per-row expert weight matmul."""
    if sorted_token_ids.shape != expert_of_row.shape:
        raise ShapeError("sorted ids / expert ids length mismatch")
    gathered = tokens[sorted_token_ids].astype(np.float32)
    out = np.empty((len(sorted_token_ids), weights.shape[2]), dtype=np.float32)
    for e in range(weights.shape[0]):
        mask = expert_of_row == e
        if mask.any():
            out[mask] = gathered[mask] @ weights[e].astype(np.float32)
    return out


def _apply_numeric(ctx: DistContext, tokens: SimTensor, weights: SimTensor,
                   out: SimTensor, sorted_token_ids: np.ndarray,
                   expert_of_row: np.ndarray) -> None:
    if not ctx.machine.config.execute_numerics:
        return
    result = group_gemm_ref(tokens.numpy(), weights.numpy(),
                            sorted_token_ids, expert_of_row)
    out.write_tile(((0, len(sorted_token_ids)), (0, result.shape[1])),
                   result)


def per_expert_gemm_op(
    ctx: DistContext, rank: int, tokens: SimTensor, weights: SimTensor,
    out: SimTensor, sorted_token_ids: np.ndarray, expert_of_row: np.ndarray,
    gather_fused: bool = False, host_synced: bool = True,
) -> Process:
    """E separate GEMM launches (+ standalone gather/scatter passes).

    Without ``gather_fused`` the tokens are first gathered into a staging
    buffer (a full memory-bound pass) and results scattered back — the
    extra passes the paper's cuBLAS baseline pays.  ``host_synced`` adds
    the per-expert CPU coordination real variable-group cuBLAS loops need
    (pointer setup + sync before each launch).
    """
    machine = ctx.machine
    cost = machine.cost
    n_experts, hidden, inter = weights.shape
    counts = np.bincount(expert_of_row, minlength=n_experts)

    def body(held: int) -> ProcessGen:
        total = 0.0
        hbm_bw = cost.hbm_effective_bandwidth
        per_op = cost.launch_overhead() + (
            cost.host_sync_overhead() if host_synced else 0.0)
        for e in range(n_experts):
            rows = int(counts[e])
            if rows == 0:
                continue
            if not gather_fused:
                # per-expert index_select into a contiguous staging
                # buffer (the unfused-gather bottleneck of Figure 9)
                gather_bytes = 2.0 * rows * hidden * tokens.itemsize
                total += per_op + gather_bytes / hbm_bw
            total += per_op  # the expert's GEMM launch (+ sync)
            total += cost.gemm_time_monolithic(
                rows, inter, hidden, dtype_bytes=tokens.itemsize,
                n_sms=held)
            if not gather_fused:
                # per-expert index_copy of the expert's output rows
                scatter_bytes = 2.0 * rows * inter * out.itemsize
                total += per_op + scatter_bytes / hbm_bw
        if not gather_fused:
            arrival = machine.device(rank).reserve_hbm(
                2.0 * len(sorted_token_ids)
                * (hidden * tokens.itemsize + inter * out.itemsize))
            total = max(total, arrival - machine.now)
        yield Timeout(total)
        _apply_numeric(ctx, tokens, weights, out, sorted_token_ids,
                       expert_of_row)
        return None

    return launch_native(machine, rank, "group_gemm.per_expert", body)


def fused_group_gemm_op(
    ctx: DistContext, rank: int, tokens: SimTensor, weights: SimTensor,
    out: SimTensor, sorted_token_ids: np.ndarray, expert_of_row: np.ndarray,
    block_m: int = 128,
) -> Process:
    """vLLM-style fused grouped GEMM: one launch, gather in the main loop."""
    machine = ctx.machine
    cost = machine.cost
    n_experts, hidden, inter = weights.shape
    counts = np.bincount(expert_of_row, minlength=n_experts)

    def body(held: int) -> ProcessGen:
        tiles_m = int(sum(math.ceil(int(c) / block_m) for c in counts if c))
        n_tiles = tiles_m * math.ceil(inter / 128)  # 128-column tiles
        waves = math.ceil(max(1, n_tiles) / held)
        tile = cost.gemm_tile_time(block_m, 128, hidden,
                                   dtype_bytes=tokens.itemsize)
        # fused gather rides the main-loop loads: ~1.2x A-operand traffic
        duration = waves * (tile.total * 1.08)
        arrival = machine.device(rank).reserve_hbm(
            n_tiles * tile.epilogue_bytes)
        yield Timeout(max(duration, arrival - machine.now))
        _apply_numeric(ctx, tokens, weights, out, sorted_token_ids,
                       expert_of_row)
        return None

    return launch_native(machine, rank, "group_gemm.fused", body)
