"""MoE baseline family of Figure 9: cuBLAS / CUTLASS / vLLM-Op + NCCL.

Three implementation tiers for each MoE part, all *without* communication
overlap (NCCL collectives run first/last on the same stream):

* ``"cublas"`` — per-expert GEMM launches with host coordination, plus
  standalone gather (part 1) and scatter + topk-reduce (part 2) passes;
* ``"cutlass"`` — one grouped-GEMM launch (no per-expert host loop) but
  still unfused gather/scatter passes;
* ``"vllm"`` — vLLM's fused op: gather/scatter fused into the grouped
  GEMM main loop (the 9.8x of the paper), still no comm overlap.

All tiers consume the shared :class:`repro.kernels.moe_common.MoeRouting`
bundle, so they solve the identical routed problem as TileLink's kernels.
The tiers are the "cuBLAS+NCCL", "CUTLASS+NCCL" and "vLLM-Op" MoE table
entries (:mod:`repro.registry`).
"""

from __future__ import annotations

import numpy as np

from repro.collectives.nccl import NcclCollectives
from repro.errors import RuntimeLaunchError
from repro.kernels.moe_common import MoeRouting
from repro.kernels.moe_layer import MoeConfig
from repro.ops.activation import silu_op
from repro.ops.group_gemm import fused_group_gemm_op, per_expert_gemm_op
from repro.ops.topk import topk_reduce_op
from repro.registry import register_impl
from repro.runtime.context import DistContext
from repro.sim.engine import Process

IMPLS = ("cublas", "cutlass", "vllm")


def _check_impl(impl: str) -> None:
    if impl not in IMPLS:
        raise RuntimeLaunchError(f"unknown MoE baseline {impl!r}; use {IMPLS}")


def _grouped_gemm(ctx: DistContext, rank: int, impl: str, tokens, weights,
                  out, routing: MoeRouting) -> Process:
    ids = routing.sorted_token_ids
    experts = routing.sorted_expert_of_row
    if impl == "cublas":
        return per_expert_gemm_op(ctx, rank, tokens, weights, out, ids,
                                  experts, gather_fused=False,
                                  host_synced=True)
    if impl == "cutlass":
        return per_expert_gemm_op(ctx, rank, tokens, weights, out, ids,
                                  experts, gather_fused=False,
                                  host_synced=False)
    return fused_group_gemm_op(ctx, rank, tokens, weights, out, ids, experts,
                               block_m=routing.block_m)


def moe_part1_baseline(ctx: DistContext, cfg: MoeConfig,
                       routing: MoeRouting, impl: str,
                       x_name: str, w1_name: str, grouped_out_name: str,
                       tag: str = "moe1") -> list[Process]:
    """AG + Gather + GroupGEMM, non-overlapped.

    ``w1_name`` binds the (E, h, i/world) expert stack (3-d); the output is
    the compact grouped layout (slots x i/world).
    """
    _check_impl(impl)
    world = ctx.world_size
    gathered = f"{tag}.{impl}.gathered"
    ctx.alloc(gathered, (cfg.m, cfg.h), "float16", fill=None)
    nccl = NcclCollectives(ctx)
    nccl.all_gather(x_name, gathered)
    return [
        _grouped_gemm(ctx, rank, impl, ctx.heap.tensor(gathered, rank),
                      ctx.heap.tensor(w1_name, rank),
                      ctx.heap.tensor(grouped_out_name, rank), routing)
        for rank in range(world)
    ]


def moe_part2_baseline(ctx: DistContext, cfg: MoeConfig,
                       routing: MoeRouting, impl: str,
                       grouped_in_name: str, w2_name: str, out_name: str,
                       tag: str = "moe2") -> list[Process]:
    """GroupGEMM + Scatter + TopkReduce + RS, non-overlapped.

    ``w2_name`` binds the (E, i/world, h) expert stack; ``grouped_in`` is
    the compact grouped activation (slots x i/world); ``out`` receives
    (m/world x h).
    """
    _check_impl(impl)
    world = ctx.world_size
    grouped_out = f"{tag}.{impl}.ggemm"
    partial = f"{tag}.{impl}.partial"
    ctx.alloc(grouped_out, (len(routing.sorted_token_ids), cfg.h), "float32",
              fill=None)
    ctx.alloc(partial, (cfg.m, cfg.h), "float32", fill=None)
    slots = routing.sorted_token_ids
    for rank in range(world):
        # identity "gather": grouped_in is already expert-ordered rows
        _grouped_gemm(ctx, rank, impl, ctx.heap.tensor(grouped_in_name, rank),
                      ctx.heap.tensor(w2_name, rank),
                      ctx.heap.tensor(grouped_out, rank),
                      _identity_routing(routing))
        topk_reduce_op(ctx, rank, ctx.heap.tensor(grouped_out, rank),
                       ctx.heap.tensor(partial, rank), slots,
                       routing.sorted_weights)
    nccl = NcclCollectives(ctx)
    return nccl.reduce_scatter(partial, out_name)


def _identity_routing(routing: MoeRouting) -> MoeRouting:
    """Part-2 view: rows are already grouped, so the gather is identity."""
    import copy

    r = copy.copy(routing)
    r.sorted_token_ids = np.arange(len(routing.sorted_token_ids),
                                   dtype=np.int64)
    return r


def moe_layer_baseline(ctx: DistContext, cfg: MoeConfig,
                       routing: MoeRouting, impl: str,
                       x_name: str, w1_name: str, w2_name: str,
                       out_name: str, tag: str = "moe") -> list[Process]:
    """Full non-overlapped MoE layer for one baseline tier."""
    _check_impl(impl)
    world = ctx.world_size
    ishard = cfg.i_shard(world)
    slots = len(routing.sorted_token_ids)
    grouped = ctx.alloc(f"{tag}.{impl}.grouped", (slots, ishard), "float16",
                        fill=None)
    act = ctx.alloc(f"{tag}.{impl}.act", (slots, ishard), "float16",
                    fill=None)
    moe_part1_baseline(ctx, cfg, routing, impl, x_name, w1_name,
                       f"{tag}.{impl}.grouped", tag=f"{tag}.p1")
    for rank in range(world):
        silu_op(ctx, rank, grouped[rank], act[rank])
    return moe_part2_baseline(ctx, cfg, routing, impl, f"{tag}.{impl}.act",
                              w2_name, out_name, tag=f"{tag}.p2")


def _entry(launch, impl: str, roles: tuple):
    """``launch``'s table entry for tier ``impl``: it allocates the operands
    ``roles`` names, as (E, h, i/world) / (E, i/world, h) stacks or slots."""
    def entry(ctx: DistContext, cfg: MoeConfig, routing, *names, **kw):
        routed, d = routing(cfg.block_m), cfg.i_shard(ctx.world_size)
        shapes = {"w1": (cfg.n_experts, cfg.h, d),
                  "w2": (cfg.n_experts, d, cfg.h),
                  "g": (len(routed.sorted_token_ids), d)}
        for role, name in zip(roles, names):
            if role:
                ctx.alloc(name, shapes[role], "float16", fill=None)
        return launch(ctx, cfg, routed, impl, *names, **kw)
    return entry


for _impl, _method in zip(IMPLS, ("cuBLAS+NCCL", "CUTLASS+NCCL", "vLLM-Op")):
    register_impl("ag_moe", _method,
                  _entry(moe_part1_baseline, _impl, (None, "w1", "g")))
    register_impl("moe_rs", _method,
                  _entry(moe_part2_baseline, _impl, ("g", "w2", None)))
    register_impl("moe_layer", _method, _entry(
        moe_layer_baseline, _impl, (None, "w1", "w2", None)))
