"""The native-kernel routine: how a library op, collective or baseline
kernel holds SMs, and the trace interval it records for that hold."""

from __future__ import annotations

import pytest

from repro.baselines import decompose
from repro.baselines.decompose import ag_gemm_decomposed, gemm_rs_decomposed
from repro.baselines.nonoverlap import ag_gemm_nonoverlap
from repro.errors import SimulationError
from repro.ops.gemm import gemm_kernel_gen
from repro.runtime.launcher import native_kernel
from tests.conftest import make_ctx


def _traced_ag_gemm(impl, world: int, m: int, n: int, k: int):
    ctx = make_ctx(world, numerics=False, trace=True)
    ctx.alloc("x", (m // world, k), "float16", fill=None)
    ctx.alloc("w", (k, n), "float16", fill=None)
    ctx.alloc("y", (m, n), "float16", fill=None)
    impl(ctx, m, n, k, "x", "w", "y")
    ctx.run()
    return ctx


def test_nccl_gemm_starts_one_launch_after_the_allgather_releases_its_sms():
    """The AllGather's interval ends when its SMs are released, after its
    exit barrier, so the GEMM queued behind it on the stream starts
    exactly one kernel launch later."""
    world = 4
    ctx = _traced_ag_gemm(ag_gemm_nonoverlap, world, 512, 128, 256)
    launch = ctx.machine.cost.launch_overhead()
    for rank in range(world):
        ivs = [iv for iv in ctx.machine.trace.intervals if iv.rank == rank]
        (ag,) = [iv for iv in ivs if iv.label.startswith("nccl.ag:")]
        (gemm,) = [iv for iv in ivs if iv.label == "gemm"]
        assert (ag.category, gemm.category) == ("comm", "compute")
        assert gemm.start == ag.end + launch


def test_async_tp_chunk_copies_record_their_sm_hold(monkeypatch):
    """Each SM-driven chunk copy records one comm interval on the rank
    whose SMs drive it."""
    sources = []
    real = decompose._chunk_copy

    def counted(ctx, src_rank, *args):
        sources.append(src_rank)
        return real(ctx, src_rank, *args)

    monkeypatch.setattr(decompose, "_chunk_copy", counted)
    ctx = _traced_ag_gemm(ag_gemm_decomposed, 4, 512, 128, 256)
    copies = [iv for iv in ctx.machine.trace.intervals
              if iv.category == "comm" and not iv.label.startswith("dma:")]
    assert sources
    assert sorted(iv.rank for iv in copies) == sorted(sources)
    assert all(iv.end > iv.start for iv in copies)


def test_async_tp_gemm_rs_records_one_compute_interval_per_launch():
    """The host launches 16 chunk GEMMs and 4 local reductions; each
    records one compute interval, the reductions under ``reduce``."""
    world, m, n, k = 4, 512, 128, 256
    ctx = make_ctx(world, numerics=False, trace=True)
    ctx.alloc("x", (m, k), "float16", fill=None)
    ctx.alloc("w", (k, n), "float16", fill=None)
    ctx.alloc("y", (m // world, n), "float32", fill=None)
    gemm_rs_decomposed(ctx, m, n, k, "x", "w", "y")
    ctx.run()
    intervals = ctx.machine.trace.intervals
    launches = [iv for iv in intervals if iv.label.startswith("launch:")]
    compute = [iv for iv in intervals if iv.category == "compute"]
    assert len(launches) == len(compute) == world * world + world
    reduces = [iv for iv in compute if iv.label == "reduce"]
    assert sorted(iv.rank for iv in reduces) == list(range(world))
    assert all(iv.end > iv.start for iv in reduces)


@pytest.mark.parametrize("sms", [0, -3])
def test_nonpositive_sm_count_raises(sms):
    ctx = make_ctx(1, numerics=False)
    ctx.alloc("a", (64, 32), "float16")
    ctx.alloc("b", (32, 16), "float16")
    ctx.alloc("c", (64, 16), "float16")
    tensors = [ctx.heap.tensor(name, 0) for name in ("a", "b", "c")]
    ctx.stream(0).enqueue(gemm_kernel_gen(ctx, 0, *tensors, sms))
    with pytest.raises(SimulationError):
        ctx.run()


def test_sm_count_is_capped_at_capacity():
    ctx = make_ctx(1, numerics=False)
    capacity = ctx.machine.device(0).sms.capacity
    held = []

    def body(count: int):
        held.append(count)
        return
        yield

    ctx.stream(0).enqueue(native_kernel(ctx.machine, 0, "k", body,
                                        sms=capacity + 5))
    ctx.run()
    assert held == [capacity]
    assert ctx.machine.device(0).sms.in_use == 0
