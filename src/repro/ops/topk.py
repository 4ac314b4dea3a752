"""MoE routing: top-k expert selection and the Topk-Reduce epilogue.

:func:`topk_route` is the host/CPU-side routing used to fill the dynamic
mapping tables (paper §4.1's "dynamic logics"); :func:`topk_reduce_op` is
the weighted combine of per-(token, expert) outputs back to token rows —
the epilogue the second MoE part fuses ahead of its ReduceScatter.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout


def topk_route(logits: np.ndarray,
               topk: int) -> tuple[np.ndarray, np.ndarray]:
    """Select top-k experts per token; returns (topk_ids, topk_weights),
    the weights a softmax over the selected logits.

    Deterministic: stable ordering on ties (descending logit, ascending id).
    """
    if logits.ndim != 2:
        raise ShapeError("router logits must be (tokens, experts)")
    n_tokens, n_experts = logits.shape
    if not 1 <= topk <= n_experts:
        raise ShapeError(f"topk {topk} out of range (E={n_experts})")
    order = np.argsort(-logits, axis=1, kind="stable")
    ids = order[:, :topk].astype(np.int64)
    picked = np.take_along_axis(logits, ids, axis=1).astype(np.float32)
    e = np.exp(picked - picked.max(axis=1, keepdims=True))
    return ids, e / e.sum(axis=1, keepdims=True)


def topk_reduce_ref(grouped_out: np.ndarray, sorted_token_ids: np.ndarray,
                    row_weights: np.ndarray, n_tokens: int) -> np.ndarray:
    """Gold standard: scatter-add weighted expert outputs to token rows."""
    out = np.zeros((n_tokens, grouped_out.shape[1]), dtype=np.float32)
    np.add.at(out, sorted_token_ids,
              grouped_out.astype(np.float32) * row_weights[:, None])
    return out


def topk_reduce_op(ctx: DistContext, rank: int, grouped_out: SimTensor,
                   out: SimTensor, sorted_token_ids: np.ndarray,
                   row_weights: np.ndarray) -> Process:
    """Scatter + weighted top-k reduction (memory-bound pass)."""
    machine = ctx.machine
    cost = machine.cost
    rows = len(sorted_token_ids)
    n_tokens, width = out.shape

    def body(_held: int) -> ProcessGen:
        # read grouped rows + atomic read-modify-write on token rows
        nbytes = rows * width * grouped_out.itemsize \
            + 2.0 * rows * width * out.itemsize
        arrival = machine.device(rank).reserve_hbm(nbytes)
        yield Timeout(max(nbytes / cost.hbm_effective_bandwidth,
                          arrival - machine.now))
        if machine.config.execute_numerics:
            result = topk_reduce_ref(
                grouped_out.numpy()[:rows], sorted_token_ids,
                row_weights, n_tokens)
            out.write_tile(((0, n_tokens), (0, width)), result)
        return None

    return launch_native(machine, rank, "topk_reduce", body)
