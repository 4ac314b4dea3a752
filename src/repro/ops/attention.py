"""Attention library kernels: flash (fused) and naive (unfused).

The naive variant materializes the score matrix in HBM and re-reads it for
softmax and the PV matmul — three memory-bound passes over an
O(S_q x S_kv) buffer.  That traffic is why the paper's ``Torch`` baseline
loses ~5x to the overlapped flash kernel at long sequence lengths.

Layouts: device tensors are 2-d row-major sequences — Q is
``(S_q, heads*dim)``, K/V are ``(S_kv, heads*dim)`` — the layout the
sequence-parallel AllGather moves.  Numerics reshape to (H, S, D)
internally.  ``causal`` masks with the *global* query offset so shards
mask correctly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout


def attention_ref(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                  causal: bool = False, q_offset: int = 0) -> np.ndarray:
    """Gold-standard softmax attention (fp32), shapes (H, S, D)."""
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("attention_ref expects (H, S, D) arrays")
    qf = q.astype(np.float32)
    kf = k.astype(np.float32)
    vf = v.astype(np.float32)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = np.einsum("hqd,hkd->hqk", qf, kf) * scale
    if causal:
        sq, skv = scores.shape[1], scores.shape[2]
        qpos = np.arange(sq)[:, None] + q_offset
        kpos = np.arange(skv)[None, :]
        scores = np.where(kpos <= qpos, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    denom = p.sum(axis=-1, keepdims=True)
    denom = np.where(denom == 0, 1.0, denom)  # fully-masked rows
    p = p / denom
    return np.einsum("hqk,hkd->hqd", p, vf)


def seq_to_heads(x: np.ndarray, heads: int, dim: int) -> np.ndarray:
    """(S, heads*dim) row layout -> (heads, S, dim)."""
    if x.ndim != 2 or x.shape[1] != heads * dim:
        raise ShapeError(f"bad sequence layout {x.shape} for H={heads} D={dim}")
    return np.ascontiguousarray(x.reshape(x.shape[0], heads, dim)
                                .transpose(1, 0, 2))


def heads_to_seq(x: np.ndarray) -> np.ndarray:
    """(heads, S, dim) -> (S, heads*dim) row layout."""
    h, s, d = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(s, h * d))


def flash_attention_op(ctx: DistContext, rank: int, q: SimTensor,
                       k: SimTensor, v: SimTensor, o: SimTensor,
                       heads: int, dim: int,
                       causal: bool = False, q_offset: int = 0) -> Process:
    """Fused flash-attention launch over 2-d sequence-layout tensors,
    priced as one KV segment by
    :meth:`~repro.sim.costmodel.CostModel.flash_segment_time`."""
    machine = ctx.machine
    sq = q.shape[0]
    skv = k.shape[0]

    def body(held: int) -> ProcessGen:
        frac = 1.0
        if causal:
            # queries at offset see ~(offset + sq/2) of skv keys
            frac = min(1.0, (q_offset + sq / 2) / max(1, skv))
        duration = machine.cost.flash_segment_time(heads, sq, skv, dim,
                                                   held, frac)
        kv_bytes = 2.0 * skv * heads * dim * k.itemsize
        arrival = machine.device(rank).reserve_hbm(kv_bytes)
        yield Timeout(max(duration, arrival - machine.now))
        _apply_attention(ctx, q, k, v, o, heads, dim, causal, q_offset)
        return None

    return launch_native(machine, rank, "flash_attn", body)


def naive_attention_op(ctx: DistContext, rank: int, q: SimTensor,
                       k: SimTensor, v: SimTensor, o: SimTensor,
                       heads: int, dim: int,
                       causal: bool = False, q_offset: int = 0) -> Process:
    """Unfused attention: QK^T -> HBM, softmax pass, PV — the Torch baseline."""
    machine = ctx.machine
    cost = machine.cost
    sq = q.shape[0]
    skv = k.shape[0]

    def body(held: int) -> ProcessGen:
        score_bytes = float(heads) * sq * skv * 2  # fp16 scores
        gemm1 = _batched_gemm_time(cost, heads, sq, skv, dim, held)
        gemm2 = _batched_gemm_time(cost, heads, sq, dim, skv, held)
        # eager pipeline: scores written, masked_fill read+write,
        # softmax read+write, PV read — six passes over the matrix
        total_hbm = 6.0 * score_bytes
        arrival = machine.device(rank).reserve_hbm(total_hbm)
        hbm_time = total_hbm / cost.hbm_effective_bandwidth
        duration = (gemm1 + gemm2 + 2 * cost.launch_overhead()
                    + max(hbm_time, arrival - machine.now))
        yield Timeout(duration)
        _apply_attention(ctx, q, k, v, o, heads, dim, causal, q_offset)
        return None

    return launch_native(machine, rank, "naive_attn", body)


def _apply_attention(ctx: DistContext, q: SimTensor, k: SimTensor,
                     v: SimTensor, o: SimTensor, heads: int, dim: int,
                     causal: bool, q_offset: int) -> None:
    if not ctx.machine.config.execute_numerics:
        return
    out = attention_ref(seq_to_heads(q.numpy(), heads, dim),
                        seq_to_heads(k.numpy(), heads, dim),
                        seq_to_heads(v.numpy(), heads, dim),
                        causal, q_offset)
    o.write_tile(((0, q.shape[0]), (0, heads * dim)), heads_to_seq(out))


def _batched_gemm_time(cost, batch: int, m: int, n: int, k: int,
                       n_sms: int) -> float:
    """Batched GEMM: grid covers batch x tile grid (wave accounting)."""
    bm = min(128, m)
    bn = min(128, n)
    tiles = batch * math.ceil(m / bm) * math.ceil(n / bn)
    waves = math.ceil(tiles / max(1, n_sms))
    tile = cost.gemm_tile_time(bm, bn, k)
    return waves * tile.total
