"""Tests for the AST frontend (Python kernel source -> tile IR)."""

from __future__ import annotations

import pytest

from repro.errors import CompileError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.frontend import compile_function
from repro.lang.ir import (
    AssignScalar,
    For,
    If,
    Primitive,
    Return,
    TileOp,
)


@kernel
def _simple(a, b, c, M: tl.constexpr, BM: tl.constexpr):
    bid = tl.block_id()
    x = tl.load(a, (bid * BM, bid * BM + BM), (0, M))
    y = tl.load(b, (bid * BM, bid * BM + BM), (0, M))
    z = x + y
    tl.store(c, (bid * BM, bid * BM + BM), (0, M), z)


def test_signature_classification():
    ir = _simple.ir
    assert ir.params == ["a", "b", "c", "M", "BM"]
    assert ir.constexpr_params == ["M", "BM"]
    assert ir.channel_param is None


def test_body_shapes():
    ir = _simple.ir
    ops = [s for s in ir.walk_stmts() if isinstance(s, TileOp)]
    assert [o.op for o in ops] == ["load", "load", "add", "store"]
    assert isinstance(ir.body[0], AssignScalar)


@kernel
def _with_channel(x, channel: tl.BlockChannel, N: tl.constexpr):
    r = channel.rank
    w = channel.num_ranks
    tl.consumer_tile_wait(r % w)


def test_channel_param_and_fields():
    ir = _with_channel.ir
    assert ir.channel_param == "channel"
    prims = [s for s in ir.walk_stmts() if isinstance(s, Primitive)]
    assert prims[0].name == "consumer_tile_wait"


@kernel
def _control_flow(a, N: tl.constexpr):
    bid = tl.block_id()
    if bid < 2:
        total = 0
        for i in range(0, N, 2):
            total = total + i
    else:
        for j in range(N):
            pass
    return


def test_control_flow_structures():
    ir = _control_flow.ir
    kinds = [type(s).__name__ for s in ir.body]
    assert "If" in kinds and "Return" in kinds
    branch = next(s for s in ir.body if isinstance(s, If))
    assert any(isinstance(s, For) for s in branch.then)
    assert any(isinstance(s, For) for s in branch.orelse)


@kernel
def _tuple_assign(N: tl.constexpr):
    a, b = N // 2, N % 2
    c = a + b


def test_tuple_assignment():
    ir = _tuple_assign.ir
    targets = [s.target for s in ir.body if isinstance(s, AssignScalar)]
    assert targets == ["a", "b", "c"]


@kernel
def _aug_dot(a, b, K: tl.constexpr, BK: tl.constexpr):
    acc = tl.zeros((16, 16), "float32")
    for k in range(0, K, BK):
        x = tl.load(a, (0, 16), (k, k + BK))
        y = tl.load(b, (k, k + BK), (0, 16))
        acc += tl.dot(x, y)


def test_fused_dot_accumulate():
    ir = _aug_dot.ir
    dots = [s for s in ir.walk_stmts()
            if isinstance(s, TileOp) and s.op == "dot"]
    assert dots[0].kwargs.get("acc") == "acc"


def test_docstring_skipped():
    @kernel
    def doc(a, N: tl.constexpr):
        """This is a docstring, not a statement."""
        x = tl.load(a, (0, N), (0, N))

    assert len(doc.ir.body) == 1


def _compile_err(src_fn) -> str:
    with pytest.raises(CompileError) as exc:
        compile_function(src_fn)
    return str(exc.value)


def test_rejects_tile_scalar_mixing():
    def bad(a, N: tl.constexpr):
        x = tl.load(a, (0, N), (0, N))
        y = x + 1
        z = y // 2  # tile used in scalar context (floordiv on tiles)

    msg = _compile_err(bad)
    assert "tile" in msg


def test_rejects_unknown_tl_function():
    def bad(a, N: tl.constexpr):
        x = tl.transmogrify(a)

    assert "tile function" in _compile_err(bad) or "tl." in _compile_err(bad)


def test_rejects_while_loops():
    def bad(N: tl.constexpr):
        while True:
            pass

    assert "unsupported statement" in _compile_err(bad)


def test_rejects_non_range_for():
    def bad(a, N: tl.constexpr):
        for x in a:
            pass

    assert "range" in _compile_err(bad)


def test_rejects_unknown_channel_field():
    def bad(channel: tl.BlockChannel):
        x = channel.secret_sauce

    assert "BlockChannel field" in _compile_err(bad)


def test_rejects_barrier_all():
    def bad(x, channel: tl.BlockChannel):
        tl.barrier_all()

    assert "unknown tl function tl.barrier_all" in _compile_err(bad)


def test_rejects_misspelled_tl_statement():
    def bad(x, channel: tl.BlockChannel):
        tl.producer_tile_notfy(0)

    assert "unknown tl function tl.producer_tile_notfy" in _compile_err(bad)


def test_rejects_value_call_as_statement():
    def bad(a, N: tl.constexpr):
        tl.load(a, (0, N), (0, N))

    assert "assign" in _compile_err(bad)


def test_rejects_varargs():
    def bad(*args):
        pass

    assert "positional" in _compile_err(bad)


def test_kernels_not_directly_callable():
    with pytest.raises(CompileError, match="launch"):
        _simple(1, 2, 3)


def test_missing_constexpr_binding_raises():
    with pytest.raises(CompileError, match="missing constexpr"):
        _simple.specialization_key({"M": 4})


def test_load_scalar_assigns_scalar():
    @kernel
    def k(table, N: tl.constexpr):
        e = tl.load_scalar(table, N)
        f = e + 1

    scalars = [s.target for s in k.ir.walk_stmts()
               if isinstance(s, AssignScalar)]
    tileops = [s for s in k.ir.walk_stmts() if isinstance(s, TileOp)]
    assert "f" in scalars
    assert tileops[0].op == "load_scalar" and tileops[0].target == "e"
