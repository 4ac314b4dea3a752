"""Static synchronization analysis: catching overlap bugs before launch.

The tile-centric primitives (`producer_tile_notify`, `consumer_tile_wait`,
...) make compute/communication overlap easy to *write* — and easy to get
subtly wrong: a deleted notify deadlocks the consumer, an inflated wait
threshold can never be reached, a missing wait races a load against a
remote store.  `repro.analyze` finds these statically: it runs a family's
real launcher against a recording context at small concrete world sizes,
abstractly interprets each launched kernel's IR, and pairs every wait site
with the notify sites that feed it.

Three acts:

1. record a shipped launch from its launcher and show the clean report;
2. plant a classic bug (delete the producer's notify) and watch the
   analyzer pinpoint the orphaned wait, with rule ids and source lines;
3. show the compile-time structural gate rejecting a misused primitive
   (a notify with an unknown mode) before the kernel can ever run.

Run:  python examples/analyze_kernel.py
"""

from __future__ import annotations

import copy

from repro.analyze import analyze_plan, record_plan
from repro.compiler.program import compile_kernel
from repro.errors import AnalysisError
from repro.kernels.ag_gemm import _ag_pull_producer
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import Primitive
from repro.registry import get_family


def registered(plan_name: str):
    """``(family, name, world, build)`` of one registered plan: ``build``
    calls the family's own launcher on tiny inputs."""
    family = plan_name.split("/")[0]
    for name, world, build in get_family(family).analyze_plans():
        if name == plan_name:
            return family, name, world, build
    raise KeyError(plan_name)


def act1_clean_sweep() -> None:
    print("=" * 72)
    print("Act 1: the shipped AG+GEMM pull launch analyzes clean")
    print("=" * 72)
    plan, extra = record_plan(*registered("ag_gemm/pull/w4"))
    report = analyze_plan(plan, extra=extra)
    print(f"plan {plan.name}: {len(plan.threads)} abstract threads, "
          f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    print(report.render() or "  (no findings — every wait is fed, every "
          "read guarded, every output tile covered)")


def _strip_notify(body):
    out = []
    for s in body:
        if isinstance(s, Primitive) and s.name == "producer_tile_notify":
            continue
        for blk in s.children():
            blk[:] = _strip_notify(blk)
        out.append(s)
    return out


def act2_seeded_deadlock() -> None:
    print()
    print("=" * 72)
    print("Act 2: delete the producer's notify -> the consumer deadlocks")
    print("=" * 72)
    ir = copy.deepcopy(_ag_pull_producer.ir)
    ir.body = _strip_notify(ir.body)
    # the launcher runs unchanged; the recording context interprets the
    # mutant IR wherever the launcher launches the pull producer
    plan, extra = record_plan(*registered("ag_gemm/pull/w2"),
                              ir_overrides={_ag_pull_producer.name: ir})
    report = analyze_plan(plan, extra=extra)
    print(f"plan {plan.name}: {len(report.errors)} errors")
    print(report.render())
    rules = {f.rule for f in report.errors}
    assert "deadlock.unmatched-wait" in rules
    assert "deadlock.stall" in rules
    print("\nThe orphaned consumer_tile_wait is reported with its source "
          "line, and the\nabstract scheduler confirms the hang: no "
          "interleaving lets those waits fire.")


@kernel
def _multicast_notify(x, channel: tl.BlockChannel, N: tl.constexpr):
    # producer_tile_notify routes "p2p" or "broadcast"; there is no multicast
    tl.producer_tile_notify(0, "multicast")


def act3_compile_gate() -> None:
    print()
    print("=" * 72)
    print("Act 3: the compile-time gate rejects a misused primitive")
    print("=" * 72)
    try:
        compile_kernel(_multicast_notify, dict(N=4))
    except AnalysisError as e:
        for f in e.findings:
            print(f"  {f.render()}")
        assert [f.rule for f in e.findings] == ["struct.bad-mode"]
        print("\nCompilation refused: the runtime has no 'multicast' "
              "routing, so this kernel\nwould fail mid-launch; the gate "
              "names the line before it can run.")
    else:
        raise AssertionError("expected the structural gate to fire")


def main() -> None:
    act1_clean_sweep()
    act2_seeded_deadlock()
    act3_compile_gate()
    print("\nSweep every registered kernel family yourself:")
    print("  PYTHONPATH=src python -m repro.analyze --all --strict")


if __name__ == "__main__":
    main()
