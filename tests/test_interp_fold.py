"""Generation-time folding in the generated backend.

Shape-only code builds no tile whose shape and dtype the IR fixes, and the
folded code simulates exactly what the tree-walking oracle
(``tests/oracle_interp.py``, swapped in through
``repro.runtime.launcher.run_block``) does on the cases the fold must get
right: ragged bounds, remote reads, scalars that may be unbound, negative
extents, float bounds (also one a loop makes float), malformed ranges and
dtypes that differ per block, and aggregable loops that carry a tile
from one trip to the next.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from collections import Counter

import numpy as np
import pytest

from repro.compiler import interp
from repro.compiler.program import compile_kernel
from repro.config import H800, SimConfig
from repro.kernels import ag_gemm, gemm_rs
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import For
from repro.runtime import launcher
from repro.runtime.context import DistContext
from tests import oracle_interp

FOLDED = (gemm_rs._gemm_producer, gemm_rs._rs_reduce, ag_gemm._ag_consumer_gemm)


def test_gemm_and_reduce_kernels_build_no_tiles_in_timing_mode(monkeypatch):
    """Every block computes several output tiles over a K loop of four
    trips; the unfolded code builds five tiles per GEMM output tile and
    ``1 + 2 * (world - 1)`` per reduced tile."""
    built: Counter = Counter()
    real = interp._tile

    def counted(*args):
        frame = sys._getframe(1)
        while frame is not None:  # the kernel, or the helper it called
            if frame.f_code.co_filename.startswith("<kernel "):
                built[frame.f_code.co_filename[8:-1]] += 1
                break
            frame = frame.f_back
        return real(*args)

    monkeypatch.setattr(interp, "_tile", counted)
    for kdef in FOLDED:  # generate afresh, calling the counted _tile
        monkeypatch.setattr(kdef, "_programs", {})
    world, m, n, k = 4, 256, 64, 64
    ctx = DistContext.create(SimConfig(world_size=world,
                                       execute_numerics=False))
    ctx.alloc("x", (m, k), "float16", fill=None)
    ctx.alloc("w", (k, n), "float16", fill=None)
    ctx.alloc("y", (m // world, n), "float16", fill=None)
    gemm_rs.gemm_rs_overlapped(ctx, gemm_rs.GemmRsConfig(
        m=m, n=n, k=k, block_m=16, block_n=16, block_k=16, block_mr=16,
        block_nr=32), "x", "w", "y", grid=4)
    ctx.alloc("xs", (m // world, k), "float16", fill=None)
    ctx.alloc("z", (m, n), "float16", fill=None)
    ag_gemm.ag_gemm_overlapped(ctx, ag_gemm.AgGemmConfig(
        m=m, n=n, k=k, block_m=16, block_n=16, block_k=16, block_mp=16,
        mode="dma"), "xs", "w", "z", grid=4)
    assert ctx.run() > 0
    assert all(kdef._programs for kdef in FOLDED)
    assert not {kdef.name for kdef in FOLDED} & set(built), built


# -- edge cases, through both backends ------------------------------------------


@kernel
def _ragged(x, out, M: tl.constexpr, BM: tl.constexpr, K: tl.constexpr):
    for lo in range(tl.block_id() * BM, M, tl.num_blocks() * BM):
        hi = tl.minimum(lo + BM, M)
        for k in range(0, K, 4):
            a = tl.load(x, (lo, hi), (k, k + 4))
            tl.store(out, (lo, hi), (k, k + 4), a * 2.0)


@kernel
def _rank_less_peer(x, out, N: tl.constexpr):
    for k in range(N):
        a = tl.load(x, (0, N), (k, k + 1))
        b = tl.exp(a) + a
        tl.store(out, (0, N), (k, k + 1), b)


@kernel
def _indexed_peer(x, out, N: tl.constexpr):
    for _ in range(3):
        a = tl.load(x[1], (0, N), (0, N))
        tl.store(out, (0, N), (0, N), a * 2.0)


@kernel
def _bound_on_one_branch(x, out, N: tl.constexpr):
    if N > 100:
        lo = 0
    a = tl.load(x, (lo, lo + N), (0, N))
    tl.store(out, (0, N), (0, N), a)


@kernel
def _negative_never_loaded(x, out, N: tl.constexpr):
    a = tl.load(x, (0, N), (0, N))
    if N > 100:
        a = tl.load(x, (N, 0), (0, N))
    tl.store(out, (0, N), (0, N), a)


@kernel
def _negative_loaded(x, out, N: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    tl.store(out, (0, N), (0, N), acc)
    for _ in range(2):
        a = tl.load(x, (N, 0), (0, N))
        acc = acc + a
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _float_bound(x, out, N: tl.constexpr):
    lo = tl.block_id() / 2 - 0.5  # bid 0: int(3.5) - int(-0.5) == 3 rows
    for k in range(0, N, 2):
        a = tl.load(x, (lo, lo + N), (k, k + 2))
        tl.store(out, (lo, lo + N), (k, k + 2), a + 1.0)


@kernel
def _mixed_dtypes(x, y, out, N: tl.constexpr, ADD: tl.constexpr):
    acc = tl.load(x, (0, N), (0, N))
    if ADD:
        acc = acc + tl.load(y, (0, N), (0, N))
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _bound_turns_float(x, out, N: tl.constexpr):
    lo = 0
    for _ in range(2):  # the second trip: int(1.5) - int(-0.5) == 1 row
        a = tl.load(x, (lo, lo + 2), (0, N))
        tl.store(out, (lo, lo + 2), (0, N), a + 1.0)
        lo = lo - 0.5


@kernel
def _store_bound_on_one_branch(x, out, N: tl.constexpr):
    a = tl.load(x, (0, N), (0, N))
    if N > 100:
        r = 0
    tl.store(out, (r, r + N), (0, N), a)


@kernel
def _unused_division(x, out, N: tl.constexpr):
    a = tl.load(x, (0, N), (0, N))
    q = N // tl.block_id()  # noqa: F841 -- unread, and block 0 divides by 0
    tl.store(out, (0, N), (0, N), a)


@kernel
def _priced_over_feed(x, N: tl.constexpr, LOAD: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    b = tl.exp(acc)  # noqa: F841 -- takes vector time, nothing over feed
    if LOAD:
        a = tl.load(x, (0, N), (0, N))  # noqa: F841


@kernel
def _store_bad_range(x, out, N: tl.constexpr):
    a = tl.load(x, (0, N), (0, N))
    tl.store(out, (0, N, 1), (0, N), a)


@kernel
def _store_missing_range(x, out, N: tl.constexpr):
    a = tl.load(x, (0, N), (0, N))
    tl.store(out, (0, N), a)


@kernel
def _carried_sum(x, out, N: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    for _ in range(3):
        a = tl.load(x, (0, N), (0, N))
        acc = acc + a
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _carried_dot(x, w, out, N: tl.constexpr, K: tl.constexpr):
    acc = tl.load(out, (0, N), (0, N))
    for k in range(0, K, 2):
        a = tl.load(x, (0, N), (k, k + 2))
        b = tl.load(w, (k, k + 2), (0, N))
        acc = tl.dot(a, b, acc=acc)
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _const_under_branch(x, out, N: tl.constexpr):
    if tl.block_id() >= 0:
        tiles = 2
        for t in range(4):
            i = t // tiles
            j = t % tiles
            a = tl.load(x, (i, i + 1), (j, j + 1))
            tl.store(out, (i, i + 1), (j, j + 1), a)


@kernel
def _const_read_past_its_branch(x, out, N: tl.constexpr, WIDE: tl.constexpr):
    if WIDE:
        w = 2
        a = tl.load(x, (0, w), (0, N))
        tl.store(out, (0, w), (0, N), a * 2.0)
    b = tl.load(x, (0, w), (0, N))  # unbound where the branch was skipped
    tl.store(out, (0, w), (0, N), b)


_RNG = np.random.default_rng(11)
_A = _RNG.standard_normal((10, 8)).astype(np.float32)


def _build(kdef, grid: int, arrays: dict, consts: dict, peer: str = ""):
    """Bind ``arrays`` on every rank and launch ``kdef`` SPMD; ``peer``
    names an argument bound, on every rank, to rank 1's instance alone."""
    def build(ctx):
        for name, arr in arrays.items():
            ctx.bind(name, [arr.copy() for _ in range(ctx.world_size)])
        args = {name: ctx.heap.tensors(name) for name in arrays}
        if peer:
            args[peer] = ctx.heap.tensor(peer, 1)
        ctx.launch_spmd(kdef, grid, {**args, **consts})
    return build


CASES = {
    "ragged_bounds": (_build(_ragged, 2, {"x": _A, "out": 0 * _A},
                             {"M": 10, "BM": 4, "K": 8}), None),
    "loop_carried_sum": (_build(
        _carried_sum, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), None),
    "loop_carried_dot_from_loaded_acc": (_build(
        _carried_dot, 1, {"x": _A[:4], "w": _A[2:, :4],
                          "out": _A[:4, :4] + 1.0}, {"N": 4, "K": 8}), None),
    "rank_less_peer_in_aggregable_loop": (_build(
        _rank_less_peer, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}, peer="x"), None),
    "indexed_peer_prefetched": (_build(
        _indexed_peer, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), None),
    "bound_on_one_branch": (_build(
        _bound_on_one_branch, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), "undefined scalar 'lo'"),
    "negative_extent_never_loaded": (_build(
        _negative_never_loaded, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), None),
    "negative_extent_loaded": (_build(
        _negative_loaded, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), r"negative load extent \(-4, 4\)"),
    "float_bound": (_build(_float_bound, 2, {"x": _A, "out": 0 * _A},
                           {"N": 4}), None),
    "bound_turns_float_in_loop": (_build(
        _bound_turns_float, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), None),
    "store_bad_range": (_build(
        _store_bad_range, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), r"expected \(lo, hi\) range, got \(0, N, 1\)"),
    "store_missing_range": (_build(
        _store_missing_range, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), r"expected \(lo, hi\) range, got 'a'"),
    "const_under_branch": (_build(
        _const_under_branch, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), None),
    **{f"const_read_past_its_branch/{'taken' if wide else 'skipped'}": (
        _build(_const_read_past_its_branch, 1,
               {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
               {"N": 4, "WIDE": wide}),
        None if wide else "undefined scalar 'w'") for wide in (1, 0)},
    "store_bound_on_one_branch": (_build(
        _store_bound_on_one_branch, 1, {"x": _A[:4, :4],
                                        "out": 0 * _A[:4, :4]},
        {"N": 4}), "undefined scalar 'r'"),
    "unused_division_by_zero": (_build(
        _unused_division, 1, {"x": _A[:4, :4], "out": 0 * _A[:4, :4]},
        {"N": 4}), "ZeroDivisionError"),
    # with no shared-memory bandwidth a load's seconds divide by zero: the
    # block raises when the load runs and only then
    **{f"load_priced_over_zero_feed/{'loaded' if load else 'not_loaded'}": (
        _build(_priced_over_feed, 1, {"x": _A[:4, :4]},
               {"N": 4, "LOAD": load}),
        "ZeroDivisionError" if load else None,
        dataclasses.replace(H800, smem_bandwidth_per_sm=0.0))
       for load in (True, False)},
    **{f"dtypes_differ_per_block/{'added' if add else 'not_added'}": (
        _build(_mixed_dtypes, 1, {"x": _A[:4, :4].astype(np.float16),
                                  "y": _A[:4, :4], "out": 0 * _A[:4, :4]},
               {"N": 4, "ADD": add}), None) for add in (True, False)},
}


def _simulate(build, numeric: bool, trace: bool, spec=H800) -> dict:
    ctx = DistContext.create(SimConfig(world_size=2, spec=spec,
                                       execute_numerics=numeric, trace=trace))
    pipes, reserves = ctx.machine.interconnect, []
    real = pipes.reserve
    pipes.reserve = lambda *args: reserves.append(args) or real(*args)
    build(ctx)
    try:
        time, error = ctx.run(), None
    except Exception as exc:  # the error, and when the block raised it
        time, error = None, f"{type(exc).__name__}: {exc}"
    machine = ctx.machine
    return {
        "time": time, "error": error, "now": machine.now,
        "events": machine.sim._seq, "reserves": reserves,
        "trace": [(iv.rank, iv.category, iv.label, iv.start, iv.end)
                  for iv in machine.trace.intervals],
        "tensors": {(name, tensor.rank): tensor.data
                    for name in ctx.heap.names()
                    for tensor in ctx.heap.tensors(name)},
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_folded_code_matches_oracle(name, numeric, trace, monkeypatch):
    build, error, *spec = CASES[name]
    generated = _simulate(build, numeric, trace, *spec)
    monkeypatch.setattr(launcher, "run_block", oracle_interp.run_block)
    oracle = _simulate(build, numeric, trace, *spec)
    tensors = generated.pop("tensors"), oracle.pop("tensors")
    assert generated == oracle
    assert tensors[0].keys() == tensors[1].keys()
    for key, data in tensors[0].items():
        assert (data is None and tensors[1][key] is None
                if not numeric else np.array_equal(data, tensors[1][key])), key
    if error is None:
        assert generated["error"] is None and generated["time"] > 0
    else:
        assert re.search(error, generated["error"])
    if "peer" in name:  # every probe or prefetch of the load reserves a pipe
        assert generated["reserves"]


def test_loop_carried_kernels_sit_in_aggregable_loops():
    for kdef, consts in ((_carried_sum, {"N": 4}),
                         (_carried_dot, {"N": 4, "K": 8})):
        loops = [s for s in compile_kernel(kdef, consts).ir.walk_stmts()
                 if isinstance(s, For)]
        assert [s.aggregable for s in loops] == [True], kdef.name


def test_rank_less_peer_load_sits_in_an_aggregable_loop():
    loops = [s for s in compile_kernel(_rank_less_peer, {"N": 4}).ir.walk_stmts()
             if isinstance(s, For)]
    assert [s.aggregable for s in loops] == [True]


def _sources(monkeypatch, kdefs, run) -> dict[str, list[str]]:
    """The source of every function ``run()`` generates for ``kdefs``, by
    kernel name."""
    sources: dict[str, list[str]] = {}

    def recorded(source, filename, mode):
        sources.setdefault(filename[8:-1], []).append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(interp, "compile", recorded, raising=False)
    for kdef in kdefs:  # generate afresh
        monkeypatch.setattr(kdef, "_programs", {})
    run()
    return sources


@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
def test_a_constant_assigned_under_a_branch_folds_in_its_suite(numeric,
                                                               monkeypatch):
    """``tiles = 2`` under ``if bid >= 0:`` is a constant for the rest of
    its suite, so ``t // tiles`` and ``t % tiles`` divide by a literal and
    no generated function reads ``tiles``."""
    build = CASES["const_under_branch"][0]
    sources = _sources(monkeypatch, [_const_under_branch],
                       lambda: _simulate(build, numeric, False))
    activity, block = sources[_const_under_branch.name]
    assert "s_tiles" not in activity and "s_tiles" not in block
    if numeric:  # the addresses need the quotients
        assert "(s_t // (2))" in block and "(s_t % (2))" in block


def test_ag_consumer_tiles_n_folds_in_both_functions(monkeypatch):
    """``_ag_consumer_gemm`` assigns ``tiles_n = tl.cdiv(N, BN)`` under
    ``if cid >= 0:``; neither its activity nor its block function reads it."""
    def run():
        ctx = DistContext.create(SimConfig(world_size=2,
                                           execute_numerics=False))
        ctx.alloc("xs", (64, 64), "float16", fill=None)
        ctx.alloc("w", (64, 64), "float16", fill=None)
        ctx.alloc("z", (128, 64), "float16", fill=None)
        ag_gemm.ag_gemm_overlapped(ctx, ag_gemm.AgGemmConfig(
            m=128, n=64, k=64, block_m=16, block_n=16, block_k=16,
            block_mp=16, mode="dma"), "xs", "w", "z", grid=4)
        assert ctx.run() > 0

    sources = _sources(monkeypatch, [ag_gemm._ag_consumer_gemm], run)
    consumer = sources[ag_gemm._ag_consumer_gemm.name]
    assert len(consumer) == 2
    assert not any("s_tiles_n" in source for source in consumer)
