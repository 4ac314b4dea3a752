"""cuBLAS-style dense GEMM as a simulated library kernel.

One launch holds every SM of its rank for the analytic makespan from
:meth:`repro.sim.costmodel.CostModel.gemm_time_monolithic` (wave
quantization included) and applies the numpy matmul at completion.
This is the compute half of every non-overlap baseline.  Async-TP's
host-launched chunk GEMMs hold fewer SMs, leaving the rest to their
SM-driven copies (:func:`gemm_kernel_gen`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native, native_kernel
from repro.sim.engine import Process, ProcessGen, Timeout


def gemm_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gold-standard numpy GEMM with fp32 accumulation."""
    return (a.astype(np.float32) @ b.astype(np.float32))


def _gemm_body(ctx: DistContext, a: SimTensor, b: SimTensor, c: SimTensor):
    """Timing body of ``c = a @ b`` on the SMs the kernel holds."""
    machine = ctx.machine
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if c.shape != (m, n):
        raise ShapeError(f"gemm: output {c.shape} != ({m}, {n})")

    def body(held: int) -> ProcessGen:
        yield Timeout(machine.cost.gemm_time_monolithic(
            m, n, k, dtype_bytes=a.itemsize, n_sms=held))
        if machine.config.execute_numerics:
            c.write_tile(((0, m), (0, n)), gemm_ref(a.numpy(), b.numpy()))
        return None

    return body


def gemm_kernel_gen(ctx: DistContext, rank: int, a: SimTensor, b: SimTensor,
                    c: SimTensor, sms: int) -> ProcessGen:
    """Generator form on ``sms`` SMs, for host-launched chunk GEMMs."""
    return native_kernel(ctx.machine, rank, "gemm", _gemm_body(ctx, a, b, c),
                         sms)


def gemm_op(ctx: DistContext, rank: int, a: SimTensor, b: SimTensor,
            c: SimTensor) -> Process:
    """Enqueue a library GEMM on a rank's stream (with launch overhead)."""
    return launch_native(ctx.machine, rank, "gemm", _gemm_body(ctx, a, b, c))
