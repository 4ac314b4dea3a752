"""Recorded launch plans + structural IR checks for the registered kernels.

Every tile-IR kernel family declares its analyzer instantiations in its
``register_family(analyze_plans=...)`` hook as ``(plan name, world,
build)`` entries: ``build(ctx)`` allocates tiny inputs and calls the
family's own launcher.  :func:`record_plan` runs one entry against a
:class:`~repro.analyze.model.RecordingContext`, so the analyzed plan is
what the launcher actually wires — channels, constexprs, launch streams
and the copy-engine host procs — at a small concrete instantiation (world
in {2, 4, 8}, a few tile-grid shapes).  :func:`analyze_registered` sweeps
every registered family's :func:`family_plans`, where a family without
tile IR (``tile_ir=False``) has one informational native plan.  It is
what the ``python -m repro.analyze`` CLI drives.

:func:`structural_check_ir` is the compile-time half: purely syntactic
rules over one :class:`~repro.lang.ir.KernelIR` (primitive arity, notify
modes, missing channels, non-positive wait counts) that run on every ``compile_kernel(..., validate=True)`` via
:func:`check_compiled_ir`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.analyze.checks import analyze_plan
from repro.analyze.findings import Finding, Report
from repro.analyze.model import LaunchPlan, RecordingContext
from repro.errors import AnalysisError
from repro.lang.ir import Const, KernelIR, Primitive
from repro.registry import families as registered_families

# ---------------------------------------------------------------------------
# structural (compile-time) checks
# ---------------------------------------------------------------------------

#: primitive -> (min positional args, max positional args)
_PRIMITIVE_ARITY: dict[str, tuple[int, int]] = {
    "producer_tile_notify": (1, 2),
    "consumer_tile_wait": (1, 1),
    "peer_tile_notify": (2, 2),
    "peer_tile_wait": (2, 2),
    "tile_push_data": (4, 4),
    "tile_pull_data": (2, 3),
}

_NOTIFY_MODES = ("p2p", "broadcast")


def _const_value(arg: Any) -> Any:
    return arg.value if isinstance(arg, Const) else arg


def structural_check_ir(ir: KernelIR) -> list[Finding]:
    """Syntactic rules over one kernel IR; no instantiation needed."""
    findings: list[Finding] = []
    prims = [s for s in ir.walk_stmts() if isinstance(s, Primitive)]
    if prims and ir.channel_param is None:
        s = prims[0]
        findings.append(Finding(
            rule="struct.no-channel", kernel=ir.name,
            lineno=getattr(s, "lineno", None),
            message="kernel uses tile-centric primitives but declares no "
                    "BlockChannel parameter"))

    for s in prims:
        lo_hi = _PRIMITIVE_ARITY.get(s.name)
        if lo_hi is not None:
            lo, hi = lo_hi
            if not lo <= len(s.args) <= hi:
                findings.append(Finding(
                    rule="struct.arity", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"{s.name} takes {lo}..{hi} positional "
                            f"arguments, got {len(s.args)}"))
        if s.name == "producer_tile_notify":
            mode = s.args[1] if len(s.args) > 1 else s.kwargs.get("mode")
            mode = _const_value(mode)
            if mode is not None and isinstance(mode, str) \
                    and mode not in _NOTIFY_MODES:
                findings.append(Finding(
                    rule="struct.bad-mode", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"producer_tile_notify mode {mode!r} is not "
                            f"one of {_NOTIFY_MODES}"))
        if s.name == "peer_tile_wait":
            count = _const_value(s.kwargs.get("count"))
            if isinstance(count, int) and count <= 0:
                findings.append(Finding(
                    rule="struct.nonpositive-count", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"peer_tile_wait count={count} is satisfied "
                            "before any notify (not a synchronization)"))
    return findings


def check_compiled_ir(ir: KernelIR) -> list[Finding]:
    """Compile-time gate: raise :class:`AnalysisError` on error findings."""
    findings = structural_check_ir(ir)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise AnalysisError(
            f"{ir.name}: static analysis rejected the kernel:\n"
            + "\n".join(f.render() for f in errors),
            findings=findings)
    return findings


# ---------------------------------------------------------------------------
# recorded plans
# ---------------------------------------------------------------------------


def record_plan(family: str, name: str, world: int,
                build: Callable[[RecordingContext], Any],
                ir_overrides: dict[str, KernelIR] | None = None,
                ) -> tuple[LaunchPlan, list[Finding]]:
    """Record ``build``'s launches as a plan; returns it with the findings
    of abstract interpretation and the structural checks of every
    launched kernel IR."""
    ctx = RecordingContext(name, family, world, ir_overrides)
    build(ctx)
    findings = [f for kernel in sorted(ctx.launched)
                for f in structural_check_ir(ctx.launched[kernel])]
    return ctx.plan, findings + ctx.findings


def family_plans(fam) -> list[tuple[str, int, Callable | None]]:
    """``fam``'s ``(plan name, world, build)`` entries: its
    ``analyze_plans()``, or for a family without tile IR one native entry
    whose build is ``None``."""
    if fam.tile_ir:
        return fam.analyze_plans()
    return [(f"{fam.name}/native", 1, None)]


def analyze_registered(
        families: list[str] | None = None,
) -> Iterator[tuple[LaunchPlan, Report]]:
    """Record and analyze the registered plans; yields (plan, report)."""
    fams = registered_families()
    for family in families if families is not None else list(fams):
        fam = fams.get(family)
        if fam is None:
            raise KeyError(
                f"unknown kernel family {family!r}; registered: "
                f"{', '.join(fams)}")
        for name, world, build in family_plans(fam):
            if build is None:
                plan = LaunchPlan(name, family, world, notes=[
                    f"{family} runs as a native simulator kernel with no "
                    f"tile IR to analyze: {fam.doc}"])
                yield plan, analyze_plan(plan)
                continue
            plan, findings = record_plan(family, name, world, build)
            yield plan, analyze_plan(plan, extra=findings)
