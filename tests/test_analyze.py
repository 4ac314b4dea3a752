"""Static synchronization analyzer: clean kernels, seeded mutants, CLI.

The mutant tests are the analyzer's ground truth: each one plants a known
synchronization bug in a shipped kernel's IR, its channel wiring or its
launcher, records the family's registered plan from the real launcher,
and asserts the analyzer reports exactly that bug class, with the right
rule id and a source line.
"""

from __future__ import annotations

import copy
import json

import pytest

import repro.kernels.ag_gemm as ag_gemm_mod
import repro.runtime.launcher as launcher_mod
from repro.analyze import (
    RecordingContext,
    analyze_plan,
    analyze_registered,
    check_compiled_ir,
    record_plan,
    structural_check_ir,
)
from repro.analyze.__main__ import main as analyze_main
from repro.collectives.copy_engine import dma_all_gather
from repro.compiler.program import CompileOptions, compile_kernel
from repro.errors import AnalysisError, RuntimeLaunchError
from repro.kernels.ag_gemm import (
    AgGemmConfig,
    _ag_consumer_gemm,
    _ag_pull_producer,
    _ag_push_producer,
    ag_gemm_overlapped,
)
from repro.kernels.ag_moe import _ag_moe_group_gemm
from repro.kernels.gemm_rs import _gemm_producer, _gemm_rs_ring, _rs_reduce
from repro.kernels.moe_rs import _moe_rs_producer, _moe_rs_reduce
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import For, Primitive
from repro.registry import families, get_family
from repro.sim.engine import Timeout

SHIPPED_KERNELS = [
    _ag_consumer_gemm, _ag_pull_producer, _ag_push_producer,
    _gemm_rs_ring, _gemm_producer, _rs_reduce,
    _ag_moe_group_gemm, _moe_rs_producer, _moe_rs_reduce,
]


# ---------------------------------------------------------------------------
# clean sweep: every registered plan analyzes without errors
# ---------------------------------------------------------------------------


def test_all_registered_plans_analyze_clean():
    seen = []
    for plan, report in analyze_registered():
        assert report.ok(strict=True), (
            f"{plan.name} not clean:\n{report.render()}")
        seen.append(plan.family)
    for family in families():
        assert family in seen


def test_shipped_kernels_pass_structural_checks():
    for kdef in SHIPPED_KERNELS:
        assert structural_check_ir(kdef.ir) == []
        assert check_compiled_ir(kdef.ir) == []


def test_every_shipped_stmt_has_lineno():
    # satellite: every IR statement carries a populated source line
    for kdef in SHIPPED_KERNELS:
        for s in kdef.ir.walk_stmts():
            assert isinstance(s.lineno, int) and s.lineno > 0, (
                f"{kdef.name}: {type(s).__name__} has lineno={s.lineno!r}")


def test_kernel_meta_annotations_present():
    for kdef in SHIPPED_KERNELS:
        assert "role" in kdef.meta and "outputs" in kdef.meta


# ---------------------------------------------------------------------------
# seeded mutants
# ---------------------------------------------------------------------------


def _registered(plan_name: str):
    """``(family, name, world, build)`` of one registered plan."""
    family = plan_name.split("/")[0]
    for name, world, build in get_family(family).analyze_plans():
        if name == plan_name:
            return family, name, world, build
    raise KeyError(plan_name)


def _strip_notify(body):
    out = []
    for s in body:
        if isinstance(s, Primitive) and s.name == "producer_tile_notify":
            continue
        for blk in s.children():
            blk[:] = _strip_notify(blk)
        out.append(s)
    return out


def test_mutant_missing_notify_is_deadlock():
    ir = copy.deepcopy(_ag_pull_producer.ir)
    ir.body = _strip_notify(ir.body)
    plan, extra = record_plan(*_registered("ag_gemm/pull/w2"),
                              ir_overrides={_ag_pull_producer.name: ir})
    report = analyze_plan(plan, extra=extra)
    rules = {f.rule for f in report.errors}
    assert "deadlock.unmatched-wait" in rules
    assert "deadlock.stall" in rules
    hits = [f for f in report.errors if f.rule == "deadlock.unmatched-wait"]
    # anchored at the consumer's wait site, with a source line
    assert all(f.kernel == _ag_consumer_gemm.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


class _InflatedThresholds(RecordingContext):
    """Every channel the launcher builds waits for twice its posts."""

    def make_block_channels(self, *args, **kwargs):
        return super().make_block_channels(
            *args, **dict(kwargs, threshold_scale=2))


def test_mutant_inflated_threshold_is_unreachable():
    family, name, world, build = _registered("ag_gemm/pull/w2")
    ctx = _InflatedThresholds(name, family, world)
    build(ctx)
    report = analyze_plan(ctx.plan, extra=ctx.findings)
    rules = {f.rule for f in report.errors}
    assert "deadlock.unreachable-threshold" in rules
    hit = next(f for f in report.errors
               if f.rule == "deadlock.unreachable-threshold")
    assert hit.kernel == _ag_consumer_gemm.name
    assert isinstance(hit.lineno, int) and hit.lineno > 0
    # the message names the notify sites that fall short
    assert _ag_pull_producer.name in hit.message


def _duplicate_producer_loop(body) -> bool:
    for s in body:
        if isinstance(s, For) and any(
                isinstance(x, Primitive) for x in s.body):
            s.body = s.body + [copy.deepcopy(x) for x in s.body]
            return True
        for blk in s.children():
            if _duplicate_producer_loop(blk):
                return True
    return False


def test_mutant_duplicated_tile_loop_is_double_produce():
    ir = copy.deepcopy(_ag_pull_producer.ir)
    assert _duplicate_producer_loop(ir.body)
    plan, extra = record_plan(*_registered("ag_gemm/pull/w2"),
                              ir_overrides={_ag_pull_producer.name: ir})
    report = analyze_plan(plan, extra=extra)
    hits = [f for f in report.errors if f.rule == "race.double-produce"]
    assert hits, report.render()
    assert all(f.kernel == _ag_pull_producer.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


def test_mutant_unguarded_read_is_race():
    # delete the consumer_tile_wait from the ring kernel's reduce stage:
    # the gemm_out load then races with the same-launch producer stores
    ir = copy.deepcopy(_gemm_rs_ring.ir)

    def strip_wait(body):
        out = []
        for s in body:
            if isinstance(s, Primitive) and s.name == "consumer_tile_wait":
                continue
            for blk in s.children():
                blk[:] = strip_wait(blk)
            out.append(s)
        return out

    ir.body = strip_wait(ir.body)
    plan, extra = record_plan(*_registered("gemm_rs/ring/w2"),
                              ir_overrides={_gemm_rs_ring.name: ir})
    report = analyze_plan(plan, extra=extra)
    hits = [f for f in report.findings if f.rule == "race.unguarded-read"]
    assert hits, report.render()
    assert all(f.kernel == _gemm_rs_ring.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


# ---------------------------------------------------------------------------
# launcher bugs: only a plan recorded from the real launcher can see these
# ---------------------------------------------------------------------------

def test_dma_launch_with_two_channels_per_rank_is_clean():
    # the consumer waits on every channel of a landed shard, so the copy
    # engine must post them all; it once posted one cell per shard, which
    # deadlocked the simulator and recorded as deadlock.unmatched-wait
    world = 4
    cfg = AgGemmConfig(m=256, n=96, k=64, block_m=32, block_mp=32,
                       mode="dma", channels_per_rank=2)

    def build(ctx):
        ctx.alloc("x", (cfg.m // world, cfg.k), "float16", fill=None)
        ctx.alloc("w", (cfg.k, cfg.n), "float16", fill=None)
        ctx.alloc("y", (cfg.m, cfg.n), "float16", fill=None)
        ag_gemm_overlapped(ctx, cfg, "x", "w", "y", grid=4)

    plan, extra = record_plan("ag_gemm", "ag_gemm/dma/w4/c2", world, build)
    report = analyze_plan(plan, extra=extra)
    assert report.ok(strict=True), report.render()


def test_launcher_mutant_silent_allgather_is_unmatched_wait(monkeypatch):
    # the copy engine still moves every shard but publishes no signal
    def silent(ctx, src_name, dst_name, banks, **kwargs):
        return dma_all_gather(ctx, src_name, dst_name, None, **kwargs)

    monkeypatch.setattr(ag_gemm_mod, "dma_all_gather", silent)
    plan, extra = record_plan(*_registered("ag_gemm/dma/w2"))
    report = analyze_plan(plan, extra=extra)
    hits = [f for f in report.errors if f.rule == "deadlock.unmatched-wait"]
    assert hits, report.render()
    wait_line = next(s.lineno for s in _ag_consumer_gemm.ir.walk_stmts()
                     if isinstance(s, Primitive)
                     and s.name == "consumer_tile_wait")
    assert {(f.kernel, f.lineno) for f in hits} == {
        (_ag_consumer_gemm.name, wait_line)}


def test_recording_never_compiles_and_rejects_bypassed_seams(monkeypatch):
    def no_compile(*args, **kwargs):
        raise AssertionError("recording compiled a kernel")

    monkeypatch.setattr(launcher_mod, "compile_kernel", no_compile)
    assert all(report.ok(strict=True) for _plan, report
               in analyze_registered(["ag_gemm", "gemm_rs"]))

    ctx = RecordingContext("bypass", "ag_gemm", 2)

    def sleeps():
        yield Timeout(1e-6)

    with pytest.raises(RuntimeLaunchError, match="outside the recording"):
        ctx.stream(0, "comm").enqueue(sleeps(), name="sleeper")
    with pytest.raises(AttributeError):
        ctx.machine.stream(0, "comm")


# ---------------------------------------------------------------------------
# compile-time structural gate (CompileOptions.validate)
# ---------------------------------------------------------------------------


@kernel
def _bad_notify_mode(x, channel: tl.BlockChannel, N: tl.constexpr):
    tl.producer_tile_notify(0, "multicast")


@kernel
def _zero_count_wait(x, channel: tl.BlockChannel, N: tl.constexpr):
    tl.peer_tile_wait(0, 0, count=0)


def test_bad_notify_mode_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_bad_notify_mode, dict(N=4))
    finding = exc.value.findings[0]
    assert finding.rule == "struct.bad-mode"
    assert isinstance(finding.lineno, int) and finding.lineno > 0


def test_nonpositive_wait_count_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_zero_count_wait, dict(N=4))
    assert exc.value.findings[0].rule == "struct.nonpositive-count"


def test_validate_false_skips_structural_gate():
    program = compile_kernel(_bad_notify_mode, dict(N=4),
                             CompileOptions(validate=False))
    assert program.name == _bad_notify_mode.name


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_strict_sweep_exits_zero(capsys):
    assert analyze_main(["--all", "--strict", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "0 failing" in out


def test_cli_kernel_filter_and_json(tmp_path, capsys):
    path = tmp_path / "findings.json"
    assert analyze_main(["--kernel", "ag_attention",
                         "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["errors"] == 0
    assert payload["plans"] and payload["plans"][0]["ok"]
    assert any(f["rule"] == "analysis.note" for f in payload["findings"])


def test_cli_unknown_family_errors(capsys):
    assert analyze_main(["--kernel", "nope"]) == 2
    capsys.readouterr()
