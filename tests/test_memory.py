"""Tests for SimTensor, the symmetric heap and remote data movement."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.errors import RuntimeLaunchError, ShapeError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.memory.symmetric import SymmetricHeap
from repro.sim.engine import Timeout
from repro.sim.machine import Machine
from tests.conftest import make_ctx


def test_dtype_resolution():
    assert resolve_dtype("float16") == np.float16
    assert resolve_dtype(np.float32) == np.float32
    with pytest.raises(ShapeError):
        resolve_dtype("bfloat128")


def test_tensor_metadata():
    t = SimTensor.zeros("x", (4, 8), "float16", rank=0)
    assert t.size == 32
    assert t.nbytes == 64
    assert t.materialized
    stub = SimTensor.zeros("y", (4, 8), "float16", rank=0, materialize=False)
    assert not stub.materialized
    with pytest.raises(ShapeError):
        stub.numpy()


def test_tensor_shape_validation():
    with pytest.raises(ShapeError):
        SimTensor("x", (-1, 2), "float32", 0)
    with pytest.raises(ShapeError):
        SimTensor("x", (2, 2), "float32", 0, data=np.zeros((3, 3)))


def test_tile_read_write_roundtrip(rng):
    data = rng.standard_normal((10, 12)).astype(np.float32)
    t = SimTensor.from_array("x", data, rank=0)
    tile = t.read_tile(((2, 5), (3, 9)))
    assert np.array_equal(tile, data[2:5, 3:9])
    t.write_tile(((0, 3), (0, 3)), np.ones((3, 3), dtype=np.float32))
    assert (t.numpy()[:3, :3] == 1).all()


def test_tile_clamping_at_edges(rng):
    data = rng.standard_normal((10, 10)).astype(np.float32)
    t = SimTensor.from_array("x", data, rank=0)
    tile = t.read_tile(((8, 16), (8, 16)))   # requested 8x8, clamped 2x2
    assert tile.shape == (2, 2)
    # writes clamp too: full tile cropped into the remaining region
    t.write_tile(((8, 16), (8, 16)), np.full((8, 8), 5.0, dtype=np.float32))
    assert (t.numpy()[8:, 8:] == 5.0).all()
    assert t.tile_bytes(((8, 16), (8, 16))) == 2 * 2 * 4


def test_accumulate_tile(rng):
    t = SimTensor.zeros("x", (4, 4), "float32", rank=0)
    t.accumulate_tile(((0, 4), (0, 4)), np.ones((4, 4)))
    t.accumulate_tile(((0, 4), (0, 4)), np.ones((4, 4)))
    assert (t.numpy() == 2).all()


def test_timing_mode_tensors_noop():
    t = SimTensor.zeros("x", (4, 4), "float32", rank=0, materialize=False)
    assert t.read_tile(((0, 2), (0, 2))) is None
    t.write_tile(((0, 2), (0, 2)), None)      # silently ignored
    t.accumulate_tile(((0, 2), (0, 2)), None)
    assert t.tile_bytes(((0, 4), (0, 4))) == 64


def test_bad_ranges_rejected():
    t = SimTensor.zeros("x", (4, 4), "float32", rank=0)
    with pytest.raises(ShapeError):
        t.read_tile(((0, 2),))          # wrong arity
    with pytest.raises(ShapeError):
        t.read_tile(((2, 1), (0, 2)))   # hi < lo


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 25),
       st.integers(0, 25), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_tile_bytes_matches_numpy(rows, cols, lo_r, lo_c, h, w):
    t = SimTensor.zeros("x", (rows, cols), "float16", rank=0)
    ranges = ((lo_r, lo_r + h), (lo_c, lo_c + w))
    region = t.read_tile(ranges)
    assert t.tile_bytes(ranges) == region.size * 2


# ---------------------------------------------------------------------------
# symmetric heap
# ---------------------------------------------------------------------------

def test_alloc_one_instance_per_rank(ctx4):
    tensors = ctx4.alloc("x", (4, 4), "float32")
    assert len(tensors) == 4
    assert [t.rank for t in tensors] == [0, 1, 2, 3]
    with pytest.raises(RuntimeLaunchError):
        ctx4.alloc("x", (4, 4), "float32")   # duplicate name


def test_alloc_noise_fill_differs_across_ranks(ctx4):
    tensors = ctx4.alloc("x", (8, 8), "float32", fill=None)
    assert not np.array_equal(tensors[0].numpy(), tensors[1].numpy())


def test_alloc_noise_fill_is_the_same_in_every_process():
    """Uninitialised data must not depend on the per-process str hash
    salt, or a kernel reading a buffer it never wrote would give a
    different wrong answer in each process."""
    script = ("from tests.conftest import make_ctx\n"
              "t = make_ctx(2).alloc('ag_gemm.gathered', (4, 8), 'float32',"
              " fill=None)\n"
              "print(b''.join(x.numpy().tobytes() for x in t).hex())\n")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])}
    outputs = [subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True,
        text=True, check=True, timeout=60,
        env={**env, "PYTHONHASHSEED": seed}).stdout for seed in ("1", "2")]
    assert outputs[0] and outputs[0] == outputs[1]


def test_bind_validates(ctx2, rng):
    a = rng.standard_normal((3, 3)).astype(np.float32)
    with pytest.raises(RuntimeLaunchError):
        ctx2.bind("x", [a])                 # wrong count
    with pytest.raises(ShapeError):
        ctx2.bind("y", [a, a[:2]])          # ragged
    tensors = ctx2.bind("z", [a, a * 2])
    assert np.allclose(tensors[1].numpy(), a * 2)
    with pytest.raises(RuntimeLaunchError):
        ctx2.heap.tensor("nope", 0)


@kernel
def _push_tile0(x, channel: tl.BlockChannel, BM: tl.constexpr,
                N: tl.constexpr):
    if channel.rank == 0:
        v = tl.load(x, (0, BM), (0, N))
        tl.tile_push_data(x[1], 0, 0, v)


@kernel
def _pull_tile0(x, y, channel: tl.BlockChannel, BM: tl.constexpr,
                N: tl.constexpr):
    if channel.rank == 1:
        v = tl.tile_pull_data(x, 0, 0)
        tl.store(y, (0, BM), (0, N), v)


def _move_tile0(kdef, mover: int, probe=None, at: float = 0.0):
    """Launch ``kdef`` on 2 ranks over an 8x4 ``x`` whose rank ``r`` holds
    ``r + 1`` (row tile 0 belongs to rank 0); ``probe(ctx)`` runs at
    simulated time ``at``.  Returns the context and the moving rank's
    (issue, arrival) comm span."""
    ctx = make_ctx(2, trace=True)
    ctx.bind("x", [np.full((8, 4), r + 1.0, dtype=np.float32)
                   for r in range(2)])
    ctx.alloc("y", (8, 4), "float32")
    channels = ctx.make_block_channels(
        "mv", mapping=AffineTileMapping(8, 4, 2),
        comm_grid=TileGrid(8, 4, 4, 4))
    args = dict(x=ctx.heap.tensors("x"), channel=channels, BM=4, N=4)
    if "y" in kdef.ir.params:
        args["y"] = ctx.heap.tensors("y")
    ctx.launch_spmd(kdef, 1, args)
    if probe is not None:
        def probing():
            yield Timeout(at)
            probe(ctx)
        ctx.machine.spawn(probing(), "probe")
    ctx.run()
    [span] = ctx.machine.trace.spans("comm", rank=mover)
    return ctx, span


def test_put_tile_applies_at_arrival():
    """A tile pushed between ranks (``tl.tile_push_data``) is not visible
    before link arrival — the property the memory-consistency machinery
    relies on."""
    _, (issue, arrival) = _move_tile0(_push_tile0, mover=0)
    assert issue < arrival
    seen = {}
    ctx, _ = _move_tile0(
        _push_tile0, mover=0, at=(issue + arrival) / 2,
        probe=lambda c: seen.update(mid=c.heap.tensor("x", 1).numpy()[0, 0]))
    assert seen["mid"] == 2.0                               # stale in flight
    assert (ctx.heap.tensor("x", 1).numpy()[:4] == 1.0).all()   # landed
    assert (ctx.heap.tensor("x", 1).numpy()[4:] == 2.0).all()


def test_get_tile_snapshot_at_issue():
    """A pull (``tl.tile_pull_data``) carries the source value at issue:
    a source write while the tile is in flight does not reach it."""
    _, (issue, arrival) = _move_tile0(_pull_tile0, mover=1)
    assert issue < arrival
    ctx, _ = _move_tile0(
        _pull_tile0, mover=1, at=(issue + arrival) / 2,
        probe=lambda c: c.heap.tensor("x", 0).write_tile(
            ((0, 4), (0, 4)), np.full((4, 4), 7.0)))
    assert (ctx.heap.tensor("x", 0).numpy()[:4] == 7.0).all()   # mutated
    assert (ctx.heap.tensor("y", 1).numpy()[:4] == 1.0).all()   # snapshot


def test_signal_bank_alloc_and_free(ctx2):
    banks = ctx2.heap.alloc_signals("s", 4)
    assert len(banks) == 2 and len(banks[0]) == 4
    with pytest.raises(RuntimeLaunchError):
        ctx2.heap.alloc_signals("s", 4)
    ctx2.heap.free("s")
    ctx2.heap.alloc_signals("s", 2)  # reusable after free


def test_heap_names(ctx2):
    ctx2.alloc("b", (2, 2), "float32")
    ctx2.alloc("a", (2, 2), "float32")
    assert ctx2.heap.names() == ["a", "b"]
