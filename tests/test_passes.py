"""Tests for the compiler passes: aggregation, pipelining, consistency."""

from __future__ import annotations

import pytest

from repro.compiler.passes import (
    annotate_loops,
    enforce_consistency,
    pipeline_loops,
    verify_consistency,
)
from repro.compiler.program import CompileOptions, compile_kernel
from repro.errors import ConsistencyError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import For, TileOp, walk_block


@kernel
def _gemm_like(a, b, c, K: tl.constexpr, BK: tl.constexpr):
    acc = tl.zeros((16, 16), "float32")
    for k in range(0, K, BK):
        x = tl.load(a, (0, 16), (k, k + BK))
        y = tl.load(b, (k, k + BK), (0, 16))
        acc += tl.dot(x, y)
    tl.store(c, (0, 16), (0, 16), acc)


@kernel
def _guarded(a, c, channel: tl.BlockChannel, N: tl.constexpr,
             BM: tl.constexpr):
    for t in range(N):
        tl.consumer_tile_wait(t)
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))
        tl.store(c, (t * BM, t * BM + BM), (0, BM), x)


@kernel
def _load_before_wait(a, c, channel: tl.BlockChannel, N: tl.constexpr,
                      BM: tl.constexpr):
    for t in range(N):
        w = tl.load(a, (0, BM), (0, BM))       # not guarded (precedes wait)
        tl.consumer_tile_wait(t)
        x = tl.load(c, (t * BM, t * BM + BM), (0, BM))  # guarded


def _loops(ir):
    return [s for s in walk_block(ir.body) if isinstance(s, For)]


def _loads(ir):
    return [s for s in walk_block(ir.body)
            if isinstance(s, TileOp) and s.op == "load"]


def test_primitive_free_loop_is_aggregable():
    prog = compile_kernel(_gemm_like, {"K": 64, "BK": 16})
    loop = _loops(prog.ir)[0]
    assert loop.aggregable
    assert loop.pipelined


def test_loop_with_primitive_not_aggregable():
    prog = compile_kernel(_guarded, {"N": 4, "BM": 16})
    loop = _loops(prog.ir)[0]
    assert not loop.aggregable
    assert loop.pipelined   # it still has loads to prefetch


def test_consistency_pins_guarded_loads():
    prog = compile_kernel(_guarded, {"N": 4, "BM": 16})
    load = _loads(prog.ir)[0]
    assert not load.prefetchable
    assert load.guards and load.guards[0].name == "consumer_tile_wait"


def test_unguarded_load_stays_prefetchable():
    prog = compile_kernel(_load_before_wait, {"N": 4, "BM": 16})
    loads = _loads(prog.ir)
    assert loads[0].prefetchable        # before the wait: hoisting is safe
    assert not loads[1].prefetchable    # after the wait: pinned


def test_disabling_consistency_leaves_loads_hot():
    prog = compile_kernel(
        _guarded, {"N": 5, "BM": 16},
        CompileOptions(enforce_consistency=False, validate=False))
    load = _loads(prog.ir)[0]
    assert load.prefetchable            # the §4.2 hazard, armed


def test_verifier_catches_bad_schedule():
    import copy

    ir = copy.deepcopy(_guarded.ir)
    annotate_loops(ir)
    pipeline_loops(ir)
    with pytest.raises(ConsistencyError):
        verify_consistency(ir)          # without enforce_consistency
    enforce_consistency(ir)
    verify_consistency(ir)              # now clean


def test_num_stages_one_disables_pipelining():
    prog = compile_kernel(_gemm_like, {"K": 32, "BK": 16},
                          CompileOptions(num_stages=1))
    loop = _loops(prog.ir)[0]
    assert not loop.pipelined
    assert all(not l.prefetchable for l in _loads(prog.ir))


def test_specialization_cache():
    p1 = compile_kernel(_gemm_like, {"K": 64, "BK": 16})
    p2 = compile_kernel(_gemm_like, {"K": 64, "BK": 16})
    p3 = compile_kernel(_gemm_like, {"K": 128, "BK": 16})
    assert p1 is p2
    assert p1 is not p3


@kernel
def _wait_in_branch(a, c, channel: tl.BlockChannel, N: tl.constexpr,
                    BM: tl.constexpr):
    for t in range(N):
        if t > 0:
            tl.consumer_tile_wait(t)
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))  # after the join
        tl.store(c, (t * BM, t * BM + BM), (0, BM), x)


@kernel
def _wait_in_inner_loop(a, c, channel: tl.BlockChannel, N: tl.constexpr,
                        BM: tl.constexpr):
    for t in range(N):
        for u in range(2):
            tl.consumer_tile_wait(t + u)
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))
        tl.store(c, (t * BM, t * BM + BM), (0, BM), x)


def test_branch_wait_guards_loads_after_the_join():
    # regression: a wait inside an If branch must still pin loads that
    # follow the If — the branch's guard reaches the join conservatively
    prog = compile_kernel(_wait_in_branch, {"N": 4, "BM": 16})
    load = _loads(prog.ir)[0]
    assert not load.prefetchable
    assert load.guards and load.guards[0].name == "consumer_tile_wait"


def test_inner_loop_wait_guards_loads_after_the_loop():
    prog = compile_kernel(_wait_in_inner_loop, {"N": 4, "BM": 16})
    outer_load = [l for l in _loads(prog.ir)][0]
    assert not outer_load.prefetchable
    assert outer_load.guards


def test_remote_load_blocks_aggregation():
    @kernel
    def remote(shards, c, channel: tl.BlockChannel, W: tl.constexpr,
               BM: tl.constexpr):
        for q in range(W):
            x = tl.load(shards[q], (0, BM), (0, BM))
            tl.store(c, (q * BM, q * BM + BM), (0, BM), x)

    prog = compile_kernel(remote, {"W": 2, "BM": 8})
    assert not _loops(prog.ir)[0].aggregable


def test_specializations_copy_statements_and_share_expressions():
    piped = compile_kernel(_gemm_like, {"K": 96, "BK": 16})
    flat = compile_kernel(_gemm_like, {"K": 96, "BK": 16},
                          CompileOptions(num_stages=1))
    frontend = list(walk_block(_gemm_like.ir.body))
    stmts = [list(walk_block(p.ir.body)) for p in (piped, flat)]
    assert not {id(s) for s in stmts[0]} & {id(s) for s in stmts[1]}
    assert not {id(s) for s in frontend} & {id(s) for p in stmts for s in p}
    assert _loops(piped.ir)[0].pipelined
    assert not _loops(flat.ir)[0].pipelined
    assert not any(l.prefetchable for l in _loads(flat.ir))
    # the passes annotate copies: the kernel's own IR stays unannotated
    assert not any(getattr(s, "aggregable", False)
                   or getattr(s, "pipelined", False)
                   or getattr(s, "prefetchable", False)
                   or getattr(s, "guards", None) for s in frontend)
    # the frozen expressions are shared, not copied
    assert _loads(piped.ir)[0].args[1] is _loads(_gemm_like.ir)[0].args[1]
