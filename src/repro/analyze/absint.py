"""Abstract interpretation of kernel IR into event traces.

One :func:`interpret_launch` call plays a single (rank, block) through the
IR at a concrete instantiation — constexprs bound, channel metadata real,
tile-id arithmetic evaluated exactly — but with *events* recorded instead
of simulated: each TileLink primitive becomes a wait/notify event against
an :class:`~repro.analyze.model.AbstractBank`, and each memory tile op
becomes a read/write/accum access record.

The value lattice is {concrete scalar} ∪ {UNKNOWN}.  ``tl.load_scalar``
results and unresolved names evaluate to UNKNOWN; accesses whose extents
involve UNKNOWN are recorded with ``rows=None`` and excluded from the
race/coverage checks (data-dependent addressing — e.g. ``gather_rows``
through a routing table — is out of scope by design).  Branches on
UNKNOWN conditions are explored both ways with ``guaranteed=False``.

The semantics are the interpreter's, not a copy of them: scalar operators
come from :data:`repro.lang.ir.BINARY_OPS`/:data:`~repro.lang.ir.UNARY_OPS`,
and every primitive resolves through the real
:class:`~repro.lang.block_channel.BlockChannel` (``notify_posts``,
``consumer_wait_list``, ``peer_bank``, ``comm_tile_ranges``,
``pull_source``) that the backend's generated primitive code calls
(:mod:`repro.compiler.interp`) — only the signal arrays are abstract.  This
module adds just the UNKNOWN handling and the event emission.
"""

from __future__ import annotations

from typing import Any

from repro.errors import LoweringError, MappingError
from repro.lang.block_channel import BlockChannel
from repro.lang.ir import (
    BINARY_OPS,
    UNARY_OPS,
    AssignScalar,
    BinOp,
    ChannelField,
    Const,
    Expr,
    For,
    If,
    KernelIR,
    Name,
    Primitive,
    Return,
    Stmt,
    TensorRef,
    TileOp,
    UnaryOp,
)
from repro.analyze.findings import Finding
from repro.analyze.model import UNKNOWN, Event, Site

#: per-thread event budget; a kernel emitting more is truncated (warning)
MAX_EVENTS = 50_000
#: per-loop iteration budget
MAX_TRIPS = 4_096

class _Return(Exception):
    pass


class _Truncated(Exception):
    pass


class AbstractEvaluator:
    """Plays one (rank, block) of a kernel, recording events."""

    def __init__(self, ir: KernelIR, constexprs: dict[str, Any],
                 channel: BlockChannel | None, tensors: dict[str, str],
                 shapes: dict[str, tuple[int, int]], rank: int, bid: int,
                 grid: int, world: int):
        self.ir = ir
        self.channel = channel
        self.tensors = tensors      # kernel param -> plan tensor name
        self.shapes = shapes        # plan tensor name -> (rows, cols)
        self.rank = rank
        self.world = world
        self.scalars: dict[str, Any] = dict(constexprs)
        self.scalars["$bid"] = bid
        self.scalars["$nblocks"] = grid
        self.events: list[Event] = []
        self.findings: list[Finding] = []
        self.cond_depth = 0          # >0 inside an undecidable branch
        self._warned: set[tuple] = set()

    # -- plumbing ------------------------------------------------------------

    def site(self, s: Stmt, detail: str = "") -> Site:
        return Site(self.ir.name, getattr(s, "lineno", None), detail)

    def emit(self, event: Event) -> None:
        if len(self.events) >= MAX_EVENTS:
            raise _Truncated()
        self.events.append(event)

    def warn_once(self, rule: str, message: str, s: Stmt) -> None:
        key = (rule, getattr(s, "lineno", None))
        if key in self._warned:
            return
        self._warned.add(key)
        self.findings.append(Finding(
            rule=rule, message=message, kernel=self.ir.name,
            lineno=getattr(s, "lineno", None)))

    @property
    def guaranteed(self) -> bool:
        return self.cond_depth == 0

    # -- scalar evaluation ---------------------------------------------------

    def eval(self, e: Expr) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Name):
            return self.scalars.get(e.id, UNKNOWN)
        if isinstance(e, ChannelField):
            if self.channel is None:
                return UNKNOWN
            try:
                return self.channel.scalar_field(e.field_name)
            except (LoweringError, AttributeError):
                return UNKNOWN
        if isinstance(e, UnaryOp):
            v = self.eval(e.operand)
            fn = UNARY_OPS.get(e.op)
            return UNKNOWN if v is UNKNOWN or fn is None else fn(v)
        if isinstance(e, BinOp):
            left = self.eval(e.left)
            # short-circuit like Python so `k and f(k)` stays decidable
            if e.op == "and":
                return left if left is UNKNOWN or not left \
                    else self.eval(e.right)
            if e.op == "or":
                return left if left is UNKNOWN or left else self.eval(e.right)
            right = self.eval(e.right)
            fn = BINARY_OPS.get(e.op)
            if left is UNKNOWN or right is UNKNOWN or fn is None:
                return UNKNOWN
            try:
                return fn(left, right)
            except (ZeroDivisionError, TypeError, ValueError):
                return UNKNOWN
        return UNKNOWN

    def eval_int(self, e: Expr) -> Any:
        v = self.eval(e)
        return int(v) if v is not UNKNOWN else UNKNOWN

    def range_pair(self, pair: Any) -> tuple[int, int] | None:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return None
        lo, hi = self.eval(pair[0]), self.eval(pair[1])
        if lo is UNKNOWN or hi is UNKNOWN:
            return None
        return (int(lo), int(hi))

    def resolve_ref(self, ref: TensorRef) -> tuple[str, int] | None:
        """TensorRef -> (plan tensor name, instance rank)."""
        name = self.tensors.get(ref.name)
        if name is None:
            return None
        if ref.rank is None:
            return (name, self.rank)
        r = self.eval_int(ref.rank)
        if r is UNKNOWN:
            return None
        return (name, r)

    # -- access recording ---------------------------------------------------

    def access(self, kind: str, s: Stmt, ref: TensorRef,
               rows: tuple[int, int] | None,
               cols: tuple[int, int] | None, detail: str) -> None:
        resolved = self.resolve_ref(ref)
        if resolved is None:
            return
        name, rank = resolved
        if cols is None and rows is not None and name in self.shapes:
            # 1-D ops (load_vec/store_vec) span whole rows of flat tables;
            # keep the extent unknown rather than guess a 2-D projection
            rows = None
        self.emit(Event(kind, self.site(s, detail),
                        guaranteed=self.guaranteed, tensor=name, rank=rank,
                        rows=rows, cols=cols))

    # -- statements -----------------------------------------------------------

    def run(self) -> None:
        try:
            self.exec_block(self.ir.body)
        except _Return:
            pass
        except _Truncated:
            self.findings.append(Finding(
                rule="analysis.truncated", kernel=self.ir.name,
                message=f"event budget ({MAX_EVENTS}) exhausted at rank "
                        f"{self.rank}; trace is partial"))

    def exec_block(self, body: list[Stmt]) -> None:
        for s in body:
            self.exec_stmt(s)

    def exec_stmt(self, s: Stmt) -> None:
        if isinstance(s, AssignScalar):
            self.scalars[s.target] = self.eval(s.value)
        elif isinstance(s, TileOp):
            self.exec_tile_op(s)
        elif isinstance(s, Primitive):
            try:
                self.exec_primitive(s)
            except (LoweringError, MappingError) as exc:
                self.warn_once(
                    "analysis.error",
                    f"primitive {s.name} failed abstract evaluation: {exc}",
                    s)
        elif isinstance(s, For):
            self.exec_for(s)
        elif isinstance(s, If):
            self.exec_if(s)
        elif isinstance(s, Return):
            raise _Return()

    def exec_for(self, s: For) -> None:
        start = self.eval_int(s.start)
        stop = self.eval_int(s.stop)
        step = self.eval_int(s.step)
        if UNKNOWN in (start, stop, step) or step == 0:
            self.warn_once(
                "analysis.unknown-loop-bounds",
                f"loop over {s.var!r} has statically-unknown bounds; "
                "body explored once (non-guaranteed)", s)
            saved = dict(self.scalars)
            self.scalars[s.var] = UNKNOWN
            self.cond_depth += 1
            try:
                self.exec_block(s.body)
            finally:
                self.cond_depth -= 1
                self._merge_scalars(saved)
            return
        trips = range(start, stop, step)
        if len(trips) > MAX_TRIPS:
            raise _Truncated()
        for i in trips:
            self.scalars[s.var] = i
            self.exec_block(s.body)

    def exec_if(self, s: If) -> None:
        cond = self.eval(s.cond)
        if cond is not UNKNOWN:
            self.exec_block(s.then if cond else s.orelse)
            return
        # undecidable: explore both branches, non-guaranteed, and smear
        # any scalars the branches disagree on
        saved = dict(self.scalars)
        self.cond_depth += 1
        try:
            self.exec_block(s.then)
            after_then = dict(self.scalars)
            self.scalars = dict(saved)
            self.exec_block(s.orelse)
            for k, v in after_then.items():
                if self.scalars.get(k, UNKNOWN) != v:
                    self.scalars[k] = UNKNOWN
        finally:
            self.cond_depth -= 1

    def _merge_scalars(self, saved: dict[str, Any]) -> None:
        for k in list(self.scalars):
            if k not in saved:
                self.scalars[k] = UNKNOWN
            elif self.scalars[k] != saved[k]:
                self.scalars[k] = UNKNOWN

    # -- tile ops -------------------------------------------------------------

    def exec_tile_op(self, s: TileOp) -> None:
        op = s.op
        if op == "load":
            ref, rows, cols = s.args[0], self.range_pair(s.args[1]), \
                self.range_pair(s.args[2])
            if isinstance(ref, TensorRef):
                self.access("read", s, ref, rows, cols, "load")
        elif op == "load_vec":
            ref = s.args[0]
            if isinstance(ref, TensorRef):
                self.access("read", s, ref, self.range_pair(s.args[1]),
                            None, "load_vec")
        elif op == "gather_rows":
            ref = s.args[0]
            if isinstance(ref, TensorRef):
                # rows are data-dependent (index tile): extent unknown
                self.access("read", s, ref, None,
                            self.range_pair(s.args[2]), "gather_rows")
        elif op == "load_scalar":
            ref = s.args[0]
            if isinstance(ref, TensorRef):
                self.access("read", s, ref, None, None, "load_scalar")
            if s.target is not None:
                self.scalars[s.target] = UNKNOWN
        elif op in ("store", "atomic_add"):
            ref, rows, cols = s.args[0], self.range_pair(s.args[1]), \
                self.range_pair(s.args[2])
            kind = "write" if op == "store" else "accum"
            if isinstance(ref, TensorRef):
                self.access(kind, s, ref, rows, cols, op)
        elif op == "store_vec":
            ref = s.args[0]
            if isinstance(ref, TensorRef):
                self.access("write", s, ref, self.range_pair(s.args[1]),
                            None, "store_vec")
        elif op == "scatter_add_rows":
            ref = s.args[0]
            if isinstance(ref, TensorRef):
                # destination rows come from an index tile: extent unknown
                self.access("accum", s, ref, None,
                            self.range_pair(s.args[2]), "scatter_add_rows")
        # pure tile arithmetic (dot, add, copy, zeros, cast, ...) emits
        # no cross-thread-visible events

    # -- primitives -----------------------------------------------------------

    def known(self, s: Primitive, *values: Any) -> bool:
        """False (and a warning) if a primitive operand is UNKNOWN."""
        if UNKNOWN in values:
            self.warn_once("analysis.error",
                           f"{s.name} has a statically-unknown tile id, "
                           "cell, rank or count", s)
            return False
        return True

    def exec_primitive(self, s: Primitive) -> None:
        ch = self.channel
        if ch is None:
            raise LoweringError(
                f"primitive {s.name} needs a BlockChannel argument")
        name = s.name
        if name in ("tile_push_data", "tile_pull_data") \
                and not isinstance(s.args[0], TensorRef):
            raise LoweringError(f"{name} needs a tensor argument")

        if name == "producer_tile_notify":
            tid = self.eval_int(s.args[0])
            to = self.eval_int(s.kwargs["to"]) if "to" in s.kwargs else None
            if not self.known(s, tid, to):
                return
            mode = s.args[1] if len(s.args) > 1 else \
                s.kwargs.get("mode", "p2p")
            for bank, cell, amount in ch.notify_posts(tid, mode, to):
                self.emit(Event(
                    "notify", self.site(s, f"notify t{tid} -> r{bank.rank}"),
                    guaranteed=self.guaranteed, bank=bank.key, cell=cell,
                    amount=amount))
        elif name == "consumer_tile_wait":
            tid = self.eval_int(s.args[0])
            if not self.known(s, tid):
                return
            for channel_idx, threshold in ch.consumer_wait_list(tid):
                self.emit(Event(
                    "wait", self.site(s, f"wait t{tid} c{channel_idx}"),
                    guaranteed=self.guaranteed, bank=ch.barriers.key,
                    cell=int(channel_idx), threshold=int(threshold)))
        elif name == "peer_tile_notify":
            cell = self.eval_int(s.args[0])
            dst = self.eval_int(s.args[1])
            if not self.known(s, cell, dst):
                return
            self.emit(Event(
                "notify", self.site(s, f"peer notify cell {cell} -> r{dst}"),
                guaranteed=self.guaranteed, bank=ch.peer_bank(dst).key,
                cell=cell, amount=1))
        elif name == "peer_tile_wait":
            cell = self.eval_int(s.args[0])
            rank = self.eval_int(s.args[1])
            count = self.eval_int(s.kwargs["count"]) \
                if "count" in s.kwargs else 1
            if not self.known(s, cell, rank, count):
                return
            self.emit(Event(
                "wait", self.site(s, f"peer wait cell {cell} @ r{rank}"),
                guaranteed=self.guaranteed, bank=ch.peer_bank(rank).key,
                cell=cell, threshold=count))
        elif name == "tile_push_data":
            tid_m = self.eval_int(s.args[1])
            tid_n = self.eval_int(s.args[2])
            rows = cols = None
            if UNKNOWN not in (tid_m, tid_n):
                rows, cols = ch.comm_tile_ranges(tid_m, tid_n)
            self.access("write", s, s.args[0], rows, cols, name)
        elif name == "tile_pull_data":
            tid_m = self.eval_int(s.args[1])
            tid_n = self.eval_int(s.args[2]) if len(s.args) > 2 else 0
            if not self.known(s, tid_m, tid_n):
                return
            src_rank, rows, cols = ch.pull_source(tid_m, tid_n)
            tensor = self.tensors.get(s.args[0].name)
            if tensor is not None:
                self.emit(Event(
                    "read", self.site(s, f"pull t{tid_m} from r{src_rank}"),
                    guaranteed=self.guaranteed, tensor=tensor,
                    rank=src_rank, rows=rows, cols=cols))
        else:
            raise LoweringError(f"unsupported primitive {name!r}")


def interpret_launch(ir: KernelIR, constexprs: dict[str, Any],
                     channel: BlockChannel | None, tensors: dict[str, str],
                     shapes: dict[str, tuple[int, int]], rank: int,
                     bid: int, grid: int,
                     world: int) -> tuple[list[Event], list[Finding]]:
    """Abstractly run one (rank, block); returns (events, findings)."""
    ev = AbstractEvaluator(ir, constexprs, channel, tensors, shapes,
                           rank=rank, bid=bid, grid=grid, world=world)
    ev.run()
    return ev.events, ev.findings
