"""Compiler passes over the tile IR.

Three passes run between the frontend and the backend:

1. :func:`annotate_loops` — marks loops *aggregable* when their bodies
   contain no primitives or nested control flow with primitives, and
   carry no scalar from one iteration to the next.  The backend prices an
   aggregable loop analytically (trip count x the cost of its first
   iteration) instead of stepping every iteration — this is what makes
   paper-scale benchmark runs tractable, and it is faithful: such loops
   have no externally visible scheduling events, every iteration costs
   what the first does, and numeric mode still replays every iteration
   from the state the loop was entered with.

2. :func:`pipeline_loops` — Triton-style software pipelining (paper §4.3).
   Aggregable loops become multi-stage pipelines (load/compute overlap: the
   per-iteration cost is ``max(load, compute)`` instead of their sum).
   Non-aggregable loops get their loads marked ``prefetchable``: the backend
   hoists them to the top of the iteration, overlapping them with the
   previous iteration — **including across TileLink wait primitives**,
   which is exactly the reordering hazard §4.2 describes.

3. :func:`enforce_consistency` — the memory-consistency pass (paper §4.2).
   Any load that follows a wait primitive inside the same loop body is
   *pinned* (``prefetchable=False``) and records its guards, so the
   pipeliner cannot hoist it above the acquire.  Disabling this pass (the
   A3 ablation) makes pipelined consumers read stale remote data — tests
   demonstrate the resulting wrong numerics.
"""

from __future__ import annotations

from repro.errors import ConsistencyError
from repro.lang.ir import (
    For,
    If,
    KernelIR,
    Primitive,
    Stmt,
    TensorRef,
    TileOp,
    scalar_reads,
    scalar_target,
    walk_block,
)

#: TileOps that read memory and are candidates for pipelining prefetch.
LOAD_OPS = {"load", "load_vec", "gather_rows"}


def annotate_loops(ir: KernelIR) -> None:
    """Mark ``For.aggregable`` bottom-up: no primitives, no nested control
    flow that itself fails aggregation, and no scalar carried from one
    iteration to the next (a counter ``n = n + 1``), since one probed
    iteration prices the whole loop."""

    def block_aggregable(body: list[Stmt]) -> bool:
        for s in body:
            if isinstance(s, Primitive):
                return False
            if isinstance(s, TileOp) and _is_remote(s):
                return False  # interconnect traffic must be scheduled per-op
            if isinstance(s, For) and not loop_aggregable(s):
                return False
            if isinstance(s, If):
                # branch conditions may depend on loop vars; keep simple
                # branches aggregable only when primitive-free
                if not (block_aggregable(s.then) and block_aggregable(s.orelse)):
                    return False
        return True

    def loop_aggregable(loop: For) -> bool:
        return block_aggregable(loop.body) and not _carries_scalar(loop)

    def _is_remote(op: TileOp) -> bool:
        return any(
            isinstance(a, TensorRef) and a.rank is not None
            for a in (*op.args, *op.kwargs.values())
        )

    def visit(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, For):
                s.aggregable = loop_aggregable(s)
                visit(s.body)
            elif isinstance(s, If):
                visit(s.then)
                visit(s.orelse)

    visit(ir.body)


def _carries_scalar(loop: For) -> bool:
    """Whether an iteration of ``loop`` may read a scalar the body assigns
    before this iteration has assigned it."""
    assigned = {scalar_target(s) for s in walk_block(loop.body)} - {None}

    def carried(body: list[Stmt], written: set[str]) -> bool:
        written = set(written)
        for s in body:
            if scalar_reads(s) & (assigned - written):
                return True
            inner = written | {s.var} if isinstance(s, For) else written
            if any(carried(block, inner) for block in s.children()):
                return True
            if not isinstance(s, For) and scalar_target(s) is not None:
                written.add(scalar_target(s))
        return False

    return carried(loop.body, {loop.var})


def pipeline_loops(ir: KernelIR, num_stages: int = 3) -> None:
    """Mark loops pipelined and flag prefetchable loads.

    ``num_stages < 2`` disables pipelining entirely (ablation knob).
    """
    if num_stages < 2:
        return

    def visit(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, For):
                has_load = any(
                    isinstance(t, TileOp) and t.op in LOAD_OPS
                    for t in walk_block(s.body)
                )
                if has_load:
                    s.pipelined = True
                    # only top-level loads participate in cross-iteration
                    # prefetch; nested ones are handled by their own loop
                    for t in s.body:
                        if isinstance(t, TileOp) and t.op in LOAD_OPS:
                            t.prefetchable = True
                visit(s.body)
            elif isinstance(s, If):
                visit(s.then)
                visit(s.orelse)

    visit(ir.body)


def enforce_consistency(ir: KernelIR) -> None:
    """Pin loads that follow wait primitives (acquire semantics, §4.2).

    Within each loop body, walk statements in order; once a wait primitive
    has been seen, every subsequent load in that body (including inside
    nested blocks) is pinned and records the guarding waits.
    """

    def visit(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, For):
                _pin_guarded(s.body, guards=[])
                visit(s.body)
            elif isinstance(s, If):
                visit(s.then)
                visit(s.orelse)

    def _pin_guarded(body: list[Stmt],
                     guards: list[Primitive]) -> list[Primitive]:
        """Pin loads after waits; return the waits discovered in ``body``.

        Waits found inside an ``If`` branch or a nested ``For`` body
        conservatively guard everything after the join point too: the
        branch may be taken (the loop may iterate), so hoisting a later
        load above that wait is unsafe.
        """
        local_guards = list(guards)
        for s in body:
            if isinstance(s, Primitive) and s.is_wait:
                local_guards.append(s)
            elif isinstance(s, TileOp) and s.op in LOAD_OPS:
                if local_guards:
                    s.prefetchable = False
                    s.guards = list(local_guards)
            elif isinstance(s, If):
                branch_waits = _pin_guarded(s.then, local_guards)
                branch_waits += _pin_guarded(s.orelse, local_guards)
                for g in branch_waits:
                    if g not in local_guards:
                        local_guards.append(g)
            elif isinstance(s, For):
                # a wait before a nested loop guards its loads too, and a
                # wait inside the loop guards statements after the loop
                inner_waits = _pin_guarded(s.body, local_guards)
                for g in inner_waits:
                    if g not in local_guards:
                        local_guards.append(g)
        return [g for g in local_guards if g not in guards]

    visit(ir.body)


def verify_consistency(ir: KernelIR) -> None:
    """Checker: raise if any wait-guarded load is still prefetchable.

    Used by tests and by ``CompileOptions(validate=True)`` builds.
    """
    def check(body: list[Stmt], seen_wait: bool) -> bool:
        local = seen_wait
        for s in body:
            if isinstance(s, Primitive) and s.is_wait:
                local = True
            elif isinstance(s, TileOp) and s.op in LOAD_OPS:
                if local and s.prefetchable:
                    raise ConsistencyError(
                        f"load at line {s.lineno} may be hoisted above a "
                        "wait primitive (memory-consistency violation); run "
                        "enforce_consistency before pipelining executes"
                    )
            elif isinstance(s, If):
                # waits in either branch guard the join conservatively
                in_then = check(s.then, local)
                in_else = check(s.orelse, local)
                local = local or in_then or in_else
            elif isinstance(s, For):
                local = check(s.body, local) or local
        return local

    for s in ir.body:
        if isinstance(s, For):
            check(s.body, False)
        elif isinstance(s, If):
            for blk in s.children():
                for t in blk:
                    if isinstance(t, For):
                        check(t.body, False)
