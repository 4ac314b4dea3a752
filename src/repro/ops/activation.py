"""Activation epilogue: the SiLU between the two MLP GEMMs.

A memory-bound elementwise kernel: read the operand, write the result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen, Timeout


def _elementwise_gen(ctx: DistContext, rank: int, inputs: list[SimTensor],
                     out: SimTensor, apply, label: str,
                     flops_per_element: float) -> ProcessGen:
    machine = ctx.machine
    cost = machine.cost
    device = machine.device(rank)
    nbytes = sum(t.nbytes for t in inputs) + out.nbytes
    n_elems = out.size
    t0 = machine.now
    arrival = device.reserve_hbm(nbytes)
    compute = n_elems * flops_per_element / cost.spec.vector_flops
    duration = max(nbytes / cost.hbm_effective_bandwidth,
                   arrival - machine.now, compute)
    yield Timeout(duration)
    if machine.config.execute_numerics:
        result = apply(*[t.numpy() for t in inputs])
        out.write_tile(tuple((0, s) for s in out.shape), result)
    if machine.config.trace:
        machine.record(rank, "compute", label, t0, machine.now)
    return None


def silu_ref(x: np.ndarray) -> np.ndarray:
    """Gold-standard SiLU in fp32."""
    xf = x.astype(np.float32)
    return xf / (1.0 + np.exp(-xf))


def silu_op(ctx: DistContext, rank: int, x: SimTensor,
            out: SimTensor) -> Process:
    """Single-input SiLU (the paper's inter-GEMM activation layer)."""
    if x.shape != out.shape:
        raise ShapeError(f"silu shapes differ: {x.shape}, {out.shape}")
    return ctx.machine.stream(rank).enqueue(
        _elementwise_gen(ctx, rank, [x], out, silu_ref, "silu",
                         flops_per_element=12.0),
        name=f"silu[{rank}]",
        start_delay=ctx.machine.cost.launch_overhead())
