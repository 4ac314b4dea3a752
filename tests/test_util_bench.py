"""Tests for util helpers and the bench harness plumbing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bench.harness import make_ctx, run_builder, run_builder_traced
from repro.util.stats import geomean, mean
from repro.util.tables import format_table, format_time


def test_mean_and_geomean():
    assert mean([1.0, 3.0]) == 2.0
    assert geomean([1.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, -1.0])
    with pytest.raises(ValueError):
        mean([])


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                max_size=20))
def test_geomean_between_min_and_max(vals):
    g = geomean(vals)
    assert min(vals) - 1e-9 <= g <= max(vals) + 1e-9


def test_format_table_alignment():
    out = format_table(["name", "val"], [["a", 1.5], ["bb", 2.0]],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "1.500" in out
    with pytest.raises(ValueError):
        format_table(["one"], [["a", "b"]])


def test_format_bytes_and_time():
    assert "us" in format_time(5e-6)
    assert "ms" in format_time(5e-3)
    assert format_time(2.0) == "2.0000 s"


def test_run_builder_fresh_state():
    """Each measurement boots a fresh node: no pipe-watermark leakage."""
    def build(ctx) -> None:
        ctx.alloc("x", (256, 256), "float16")
        ctx.alloc("y", (256 * ctx.world_size, 256), "float16")
        from repro.collectives.nccl import NcclCollectives
        NcclCollectives(ctx).all_gather("x", "y")

    t1 = run_builder(build, world=4)
    t2 = run_builder(build, world=4)
    assert t1 == pytest.approx(t2)   # deterministic and isolated


def test_run_builder_traced_returns_context():
    def build(ctx) -> None:
        ctx.alloc("x", (64, 64), "float16")
        ctx.alloc("y", (64 * ctx.world_size, 64), "float16")
        from repro.collectives.nccl import NcclCollectives
        NcclCollectives(ctx).all_gather("x", "y")

    total, ctx = run_builder_traced(build, world=2)
    assert total > 0
    assert ctx.machine.trace.busy_time("comm") > 0


def test_make_ctx_options():
    ctx = make_ctx(world=2, numerics=True, n_nodes=2)
    assert ctx.world_size == 2
    assert ctx.machine.config.n_nodes == 2


def test_env_flag_parses_case_insensitively(monkeypatch):
    """REPRO_FAST=False must *not* enable fast mode (the old exact-match
    parse only excluded lowercase "false")."""
    from repro.bench.harness import env_flag

    for off in ("0", "", "false", "False", "FALSE", " no ", "off", "OFF"):
        monkeypatch.setenv("REPRO_TEST_FLAG", off)
        assert not env_flag("REPRO_TEST_FLAG"), off
    for on in ("1", "true", "True", "YES", "on", "2"):
        monkeypatch.setenv("REPRO_TEST_FLAG", on)
        assert env_flag("REPRO_TEST_FLAG"), on
    monkeypatch.delenv("REPRO_TEST_FLAG")
    assert not env_flag("REPRO_TEST_FLAG")
    assert env_flag("REPRO_TEST_FLAG", default="1")
