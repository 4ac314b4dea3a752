"""Backend: one generated Python generator function per compiled kernel.

:func:`run_block` runs one block (CTA) of a launch grid as a simulation
process: the program's function for the launch's mode (numeric x trace),
which :class:`_Emitter` writes as Python source and compiles on the mode's
first run.  Block scalars and tiles are Python locals, constants are folded
in, scalar operators take the syntax of their ``BINARY_OPS``/``UNARY_OPS``
function and timed ops yield their delay inline, as a bare float the
event loop schedules without building an awaitable.  Timing variants
carry no numpy effects, untraced ones no trace records.  A statement that
fails to generate raises its error when it runs.

Generation folds what the IR fixes.  A tile's shape and dtype are static
on every path where the IR decides them: ``zeros``/``full`` of a constant
shape; ``load``/``load_vec`` of a rank-less tensor (dtype: its binding's)
whose bounds are constants or ``(lo, lo + c)``, ``c`` an int constant and
``lo`` an int (loop variables, block ids, channel fields, int constexprs,
``load_scalar`` results and ``+ - * // % min max cdiv`` of these); and the
tile ops of static operands.  Bounds with ``/``, floats or ``min`` and
``tile_pull_data`` results stay dynamic.  Shape-only code (timing variants,
aggregable-loop probes) builds no tile and computes no address for a static
one, and decides its shape checks here (a failing one raises when its
statement runs); it still reads what may be unbound or may raise, and
deletes assignments nothing reads.  A scalar assigned once, from a
constant, is that constant for the rest of the suite that assigns it.

What a launch fixes is resolved once per launch and rank: the first block
leaves it in ``bindings``, which the rank's blocks share, and the others
unpack it.  Every variant resolves the machine's handles (simulator,
device, ``reserve_hbm``, ``feed``, the cost model's prices), the tensor
arguments and the launch's channel tables: one
:class:`ChannelTable` per ``BlockChannel`` method that a wait, notify,
push or pull site reads (``consumer_wait_list``, ``notify_posts``,
``comm_tile_ranges``, ``pull_source``), which calls the method on a
tile's first use in the launch and answers from its entry after that.
The folded variant's prologue adds what needs the machine or the
bindings but no tile: itemsizes, byte counts and their seconds over
``feed``, ``mma_time``/``vector_tile_time`` of static shapes, channel
fields, and every probe whose terms all are such values.  Where a
rank-less tensor is not its symmetric list's own-rank instance or a
prologue value raises, the block runs the unfolded variant instead.  No
reservation, signal operation or ``sim.now`` read moves and sums keep
their order, so simulated times, event counts and traces do not change.

Beside the block functions each program gets an *activity function*,
written from the same statements on the program's first launch.
:func:`active_blocks` runs it once per launch and rank over every block
id: it follows the block's scalar statements and control flow, with the
channel fields computed once, and names the blocks that reach a tile op
or a primitive, or a scalar that raises, before they return.  An
aggregable or prefetching loop counts as reached from its first trip, as
it prices or loads before its body runs.  Any other block would return
on its first resume having scheduled nothing, so the launcher spawns only
the named blocks.

Scheduling semantics (compiler/passes.py sets the annotations):

* **aggregable loops** of two or more trips are priced analytically: inline
  probe code prices the first iteration (shapes and costs only), then one
  timed event covers all iterations (pipelined loops price
  ``max(load, compute)`` per iteration, otherwise the sum).  In numeric mode
  every iteration then replays, starting from the scalars and tiles the
  probe saw.
* **pipelined loops** stepped one iteration at a time prefetch their
  ``prefetchable`` loads at iteration start — address computation replayed
  from the body's scalar statements, value snapshotted *before* any wait
  primitive runs.  Loads pinned by the consistency pass execute in place,
  after their guards.  A prefetched load charges neither SM time nor HBM
  bytes.
* **signal primitives** lower to release-semantics posts (fire and forget)
  and acquire-semantics waits on :class:`repro.memory.signals.SignalArray`.
* **data primitives and remote loads** reserve interconnect pipes; payloads
  land at arrival time, so unguarded remote reads observe stale data.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from typing import Any, Callable

import numpy as np

from repro.compiler.values import ELEMENTWISE_FLOPS, TileVal
from repro.errors import LoweringError, RuntimeLaunchError, ShapeError
from repro.lang.ir import (BINARY_OPS, UNARY_OPS, AssignScalar, BinOp,
                           ChannelField, Const, Expr, For, If, Name,
                           Primitive, Return, Stmt, TensorRef, TileOp,
                           UnaryOp, scalar_reads, scalar_target, walk_block)
from repro.memory.tensor import SimTensor, resolve_dtype
# names only the generated code uses
from repro.compiler.values import apply_binary, apply_unary, padded_to  # noqa: F401
from repro.errors import SimulationError  # noqa: F401

#: fraction of aggregable-loop load bytes that miss L2 and hit HBM
AGG_DRAM_DISCOUNT = 0.22
F32 = np.dtype(np.float32)
#: Python syntax of the scalar operator functions that have one
_SYNTAX: dict[Callable, str] = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.floordiv: "//", operator.truediv: "/", operator.mod: "%",
    operator.pow: "**", operator.lt: "<", operator.le: "<=",
    operator.gt: ">", operator.ge: ">=", operator.eq: "==",
    operator.ne: "!=", operator.neg: "-", operator.not_: "not ",
}
#: the scalar operators whose value on ints is an int
_INT_OPS = ("+", "-", "*", "//", "%", "min", "max", "cdiv")
_BINARY = ("add", "sub", "mul", "div", "maximum_tile", "minimum_tile")
_STORES = ("store", "store_vec", "atomic_add", "scatter_add_rows")
#: a local the probe of an aggregable loop found unbound
_UNSET = object()
_new = object.__new__


def _tile(shape: tuple[int, ...], dtype: np.dtype, data=None) -> TileVal:
    """A TileVal from a tuple of ints and an np.dtype, unchecked."""
    v = _new(TileVal)
    v.shape, v.dtype, v.data = shape, dtype, data
    return v


#: where a launch's ``bindings`` keep its block function and channel tables
_BLOCK, _TABLES = object(), object()


def run_block(program, machine, rank: int, block_id: int, n_blocks: int,
              bindings: dict[str, Any], label: str = ""):
    """Build the simulation-process generator for one block, generating
    the program's function for the launch's mode on the mode's first run;
    the launch's first block looks the function up for all of them."""
    fn = bindings.get(_BLOCK)
    if fn is None:
        mode = (machine.config.execute_numerics, machine.config.trace, True)
        fn = bindings[_BLOCK] = program.generated.get(mode) \
            or _function(program, mode)
    return fn(machine, rank, block_id, n_blocks, bindings,
              label or program.name)


class ChannelTable(dict):
    """One launch's answers of one ``BlockChannel`` method on one rank, by
    argument tuple: a key's first lookup calls the method, later ones
    read what it answered."""

    __slots__ = ("method",)

    def __init__(self, method: Callable) -> None:
        super().__init__()
        self.method = method

    def __missing__(self, args: tuple) -> Any:
        value = self[args] = self.method(*args)
        return value


def channel_tables(bindings: dict[str, Any]) -> dict[str, ChannelTable]:
    """The channel tables of the launch and rank that own ``bindings``, by
    method name (empty before its first block ran)."""
    return bindings.get(_TABLES, {})


def active_blocks(program, n_blocks: int,
                  bindings: dict[str, Any]) -> list[int] | range:
    """The ids of one rank's launch blocks that can do anything, by the
    program's activity function (generated on its first launch)."""
    fn = program.generated.get("active")
    if fn is None:
        fn = program.generated["active"] = _Emitter(
            program, False, False, True).activity()
    return fn(n_blocks, bindings)


def _function(program, mode: tuple) -> Callable:
    """The program's block function for ``mode``: (numeric, trace, folded)."""
    fn = program.generated.get(mode)
    if fn is None:
        fn = program.generated[mode] = _Emitter(program, *mode).function()
    return fn


# -- run-time helpers the generated code calls ---------------------------------


def _ref(bindings: dict, name: str, rank: int, kernel: str,
         index: int | None = None) -> tuple:
    """Tensor argument ``name`` as ``(tensor, owning rank)``: rank
    ``index``'s instance, or, resolved once per launch and rank, the
    launch's own rank's, returning ``(error, None)`` for the op that needs
    it to raise."""
    bound = bindings.get(name)
    try:
        if isinstance(bound, list):
            r = rank if index is None else index
            if not 0 <= r < len(bound):
                raise RuntimeLaunchError(
                    f"tensor {name!r} indexed with rank {r} out of range "
                    f"[0, {len(bound)})")
            return bound[r], r
        if isinstance(bound, SimTensor):
            if index is not None and index != bound.rank:
                raise RuntimeLaunchError(f"tensor {name!r} is not symmetric; "
                                         f"cannot index rank {index}")
            return bound, bound.rank
        raise RuntimeLaunchError(
            f"kernel {kernel!r}: no binding for tensor {name!r}"
            if bound is None else f"binding for {name!r} must be SimTensor "
            f"or list, got {type(bound).__name__}")
    except RuntimeLaunchError as exc:
        if index is not None:
            raise
        return exc, None


def _tables(bindings: dict, ch: Any, *methods: str) -> list[ChannelTable]:
    """The launch's tables of ``ch``'s ``methods``, made on first need."""
    tables = bindings.setdefault(_TABLES, {})
    for method in methods:
        if method not in tables:
            tables[method] = ChannelTable(getattr(ch, method))
    return [tables[method] for method in methods]


def _undefined(exc: NameError, kernel: str, names: dict[str, tuple]) -> None:
    """Re-raise an unbound generated local as the IR's undefined scalar or
    tile; return for any other NameError."""
    m = re.search(r"'(\w+)'", str(exc))
    kind, name = names.get(m.group(1), (None, None)) if m else (None, None)
    if kind == "scalar":
        raise LoweringError(f"{kernel}: undefined scalar {name!r}") from None
    if kind == "tile":
        raise LoweringError(f"undefined tile {name!r}") from None


def _binary_stub(stubs: dict, x: Any, y: Any) -> TileVal:
    """Shape-only result of an elementwise binary op."""
    key = tuple((v.shape, v.dtype) if isinstance(v, TileVal) else ((), F32)
                for v in (x, y))
    if key not in stubs:
        (sa, da), (sb, db) = key
        stubs[key] = (tuple(np.broadcast_shapes(sa, sb)),
                      np.result_type(da, db))
    return _tile(*stubs[key])


def _prune(lines: list[str]) -> list[str]:
    """Delete the assignments marked ``#pure`` whose target nothing reads."""
    pure = {i: line.split(" = ", 1) for i, line in enumerate(lines)
            if line.endswith("#pure")}
    if not pure:
        return lines
    find = re.compile(r"\b(?:%s)\b" % "|".join(
        {lhs.strip() for lhs, _ in pure.values()})).findall
    reads = Counter(find("\n".join(lines)))
    reads.subtract(lhs.strip() for lhs, _ in pure.values())
    dead: set[int] = set()
    while new := {i for i, (lhs, _) in pure.items()
                  if i not in dead and not reads[lhs.strip()]}:
        dead |= new
        for i in new:
            reads.subtract(find(pure[i][1]))
    # a deleted first statement of a suite leaves ``pass``
    return [line[:len(line) - len(line.lstrip())] + "pass" if i in dead
            else line for i, line in enumerate(lines)
            if i not in dead or lines[i - 1].endswith(":")]


# -- the emitter -----------------------------------------------------------------


class _Emitter:
    """Writes one program's block function for one mode.

    Statements emit in one of four modes: ``timed`` code runs in the
    block's process and yields what it waits for; ``probe`` code adds one
    iteration's compute seconds, load seconds and HBM bytes to the sums it
    is given (shapes and costs only); ``replay`` code applies an aggregable
    loop's numpy effects untimed; ``active`` code runs only the scalar
    statements and returns whether the block has work.  ``fold=False``
    writes the unfolded variant, which folds nothing and computes no
    prologue values.
    """

    def __init__(self, program, numeric: bool, trace: bool, fold: bool):
        ir = self.ir = program.ir
        self.program, self.numeric, self.trace = program, numeric, trace
        self.fold = fold
        self.name, self.has_channel = program.name, ir.channel_param is not None
        assigned = Counter(scalar_target(s) for s in ir.walk_stmts())
        #: constexprs no statement reassigns are constants, and so is a
        #: scalar assigned once, from its constant assignment to the end of
        #: the suite that makes it (``scope``: the ones the suite being
        #: emitted made)
        self.consts = {k: v for k, v in program.constexprs.items()
                       if k not in assigned}
        self.once = {s.target for s in ir.walk_stmts()
                     if isinstance(s, AssignScalar) and assigned[s.target] == 1}
        self.scope: list[str] = []
        self.reassigned = {k: v for k, v in program.constexprs.items()
                           if k in assigned}
        self.ns: dict[str, Any] = dict(globals())
        self.lines: list[str] = []
        self.pad = ""
        self.n = 0
        #: generated local -> (kind, IR name), for undefined-name errors
        self.names: dict[str, tuple[str, str]] = {}
        self.locals: dict[tuple[str, str], str] = {}
        #: scalar -> the local a prefetch assigned it to
        self.shadow: dict[str, str] = {}
        self.failed: dict[int, Exception] = {}
        #: rank-less tensor argument -> its (tensor, owner) locals
        self.refs: dict[str, tuple[str, str]] = {}
        #: BlockChannel method -> the local of the launch's table of it
        self.tables: dict[str, str] = {}
        #: id(load) -> the local its prefetch sets and, if that holds no
        #: value, the static type of one
        self.slots: dict[int, tuple[str, Any]] = {}
        #: prologue expression -> its local, those locals, dtype constants,
        #: and the dtype equalities the prologue checks
        self.hoists: dict[str, str] = {}
        self.pro: set[str] = set()
        self.dtypes: dict[np.dtype, str] = {}
        self.guards: dict[str, None] = {}
        #: the locals bound on every path to the statement being emitted:
        #: "int" (an int scalar), (shape, dtype source) (a static tile) or
        #: None; and what was known at the end of the last block emitted
        self.known: dict[str, Any] = {"bid": "int", "nblocks": "int", **{
            self.local("scalar", k): "int" if isinstance(v, int) else None
            for k, v in self.reassigned.items()}}
        self.last: dict[str, Any] | None = None

    # ----------------------------------------------------------------- output

    def w(self, *lines: str) -> None:
        self.lines.extend(self.pad + line for line in lines)

    def nest(self, emit: Callable[[], None]) -> dict[str, Any]:
        """Emit an indented suite (``pass`` if it comes out empty); returns
        what is known at its end and restores what was known before it."""
        self.pad += "    "
        mark, known = len(self.lines), self.known
        emit()
        if len(self.lines) == mark:
            self.w("pass")
        self.pad = self.pad[:-4]
        known, self.known = self.known, known
        return known

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def const(self, value: Any) -> str:
        name = self.fresh("K")
        self.ns[name] = value
        return name

    def lit(self, value: Any) -> str:
        kind = type(value)
        if kind in (bool, int, str) or kind is float and math.isfinite(value):
            return f"({value!r})"
        return self.const(value)

    def local(self, kind: str, name: str) -> str:
        """The Python local holding IR scalar or tile ``name``."""
        if kind == "scalar" and name in ("$bid", "$nblocks"):
            return name[1:]  # the function's parameters
        if kind == "scalar" and name in self.shadow:
            return self.shadow[name]
        loc = self.locals.get((kind, name))
        if loc is None:
            loc = kind[0] + "_" + (name if name.isidentifier()
                                   else str(len(self.locals)))
            self.locals[kind, name] = loc
            self.names[loc] = (kind, name)
        return loc

    def hoist(self, expr: str) -> str:
        """The prologue local computing ``expr`` once per launch and rank."""
        if expr not in self.hoists:
            self.hoists[expr] = self.fresh("H")
            self.pro.add(self.hoists[expr])
        return self.hoists[expr]

    def fold_expr(self, expr: str, *parts: str) -> str:
        """``expr``, hoisted if its parts all are prologue locals or ints."""
        return self.hoist(expr) if all(p in self.pro or p.isdigit()
                                       for p in parts) else expr

    # ------------------------------------------------------------ expressions

    def expr(self, e: Any) -> tuple[bool, Any]:
        """``(True, value)`` for a constant, else ``(False, source)``."""
        if isinstance(e, Const):
            return True, e.value
        if isinstance(e, Name):
            if e.id in self.consts:
                return True, self.consts[e.id]
            return False, self.local("scalar", e.id)
        if isinstance(e, UnaryOp):
            fn, (c, v) = UNARY_OPS[e.op], self.expr(e.operand)
            return (True, fn(v)) if c else (False, self.apply(fn, v))
        if isinstance(e, ChannelField):
            if not self.has_channel:
                raise self.no_channel()
            field = f"ch.scalar_field({e.field_name!r})"
            return False, self.hoist(field) if self.fold else field
        if not isinstance(e, BinOp):
            raise LoweringError(f"cannot evaluate expression {e!r}")
        (lc, lv), op = self.expr(e.left), e.op
        if op in ("and", "or"):
            if lc:  # short-circuits at generation time
                return (True, lv) if bool(lv) == (op == "or") \
                    else self.expr(e.right)
            return False, f"({lv} {op} {self.src(e.right)})"
        if op not in BINARY_OPS:
            raise LoweringError(f"unknown scalar op {op!r}")
        (rc, rv), fn = self.expr(e.right), BINARY_OPS[op]
        if lc and rc:
            return True, fn(lv, rv)
        return False, self.apply(fn, self.lit(lv) if lc else lv,
                                 self.lit(rv) if rc else rv)

    def apply(self, fn: Callable, *args: str) -> str:
        """Source applying a scalar operator: its syntax, else a call."""
        syntax = _SYNTAX.get(fn)
        if syntax is None:
            return f"{self.const(fn)}({', '.join(args)})"
        if len(args) == 1:
            return f"({syntax}{args[0]})"
        return f"({args[0]} {syntax} {args[1]})"

    def src(self, e: Any, to_int: bool = False) -> str:
        """Source of expression ``e``, passed through ``int`` if asked."""
        c, v = self.expr(e)
        return self.lit(int(v) if to_int else v) if c else \
            f"int({v})" if to_int else v

    def pair(self, arg: Any) -> str:
        """Source of a ``(lo, hi)`` range argument as a tuple of ints."""
        if not (isinstance(arg, tuple) and len(arg) == 2):
            raise LoweringError(f"expected (lo, hi) range, got {arg!r}")
        return f"{self.src(arg[0], True)}, {self.src(arg[1], True)}"

    def is_int(self, e: Any) -> bool:
        """Whether ``e`` is an int wherever it is bound here."""
        if isinstance(e, Name) and e.id in self.consts or isinstance(e, Const):
            return isinstance(self.expr(e)[1], int)
        if isinstance(e, Name):
            return self.known.get(self.local("scalar", e.id)) == "int"
        if isinstance(e, (UnaryOp, BinOp)):
            return e.op in ("-", *_INT_OPS) and all(
                map(self.is_int, (e.operand,) if isinstance(e, UnaryOp)
                    else (e.left, e.right)))
        return isinstance(e, ChannelField)

    def droppable(self, e: Any) -> bool:
        """Whether ``e`` cannot raise here: a constant, or an int expression
        of bound scalars whose divisors are nonzero constants."""
        if isinstance(e, UnaryOp):
            return self.is_int(e) and self.droppable(e.operand)
        if isinstance(e, BinOp):
            return self.is_int(e) and self.droppable(e.left) and \
                self.droppable(e.right) and (e.op not in ("//", "%", "cdiv")
                                             or self.expr(e.right)[1] != 0
                                             and self.expr(e.right)[0])
        return isinstance(e, Const) or isinstance(e, Name) and (
            e.id in self.consts or self.is_int(e)) or \
            isinstance(e, ChannelField) and self.fold

    def operand(self, arg: Any) -> str:
        """A tile op operand: tile name -> its TileVal, Expr -> scalar."""
        if isinstance(arg, str):
            return self.local("tile", arg)
        if not isinstance(arg, Expr):
            raise LoweringError(f"bad tile operand {arg!r}")
        return self.src(arg)

    def type_of(self, arg: Any) -> Any:
        """A tile operand's static type here, or None."""
        return self.known.get(self.local("tile", arg)) \
            if isinstance(arg, str) else None

    def table(self, method: str) -> str:
        """The local of the launch's table of ``ch.<method>``."""
        if method not in self.tables:
            self.tables[method] = self.fresh("C")
        return self.tables[method]

    def tensor(self, name: str) -> str:
        """The local of rank-less tensor argument ``name``."""
        if name not in self.refs:
            self.refs[name] = (self.fresh("T"), self.fresh("O"))
        return self.refs[name][0]

    def ref(self, ref: Any, local: str | None = None) -> tuple[str, str]:
        """Emit the resolution of a tensor argument; returns its tensor and
        owner locals.  Given ``local`` (the error for a remote tensor), the
        tensor must be on the block's own rank."""
        if not isinstance(ref, TensorRef):
            raise LoweringError(f"expected a tensor argument, got {ref!r}")
        if ref.rank is not None:
            self.w(f"_T, _O = _ref(bindings, {ref.name!r}, rank, "
                   f"{self.name!r}, {self.src(ref.rank, True)})")
            if local is not None:
                self.w(f"if _O != rank: raise LoweringError({local!r})")
            return "_T", "_O"
        tensor, owner = self.tensor(ref.name), self.refs[ref.name][1]
        if self.fold:  # the prologue checked that it is the block's rank's
            return tensor, "rank"
        if local is None:
            self.w(f"if {owner} is None: raise {tensor}.with_traceback(None)")
        else:
            self.w(f"if {owner} != rank: raise {tensor}.with_traceback(None) "
                   f"if {owner} is None else LoweringError({local!r})")
        return tensor, owner

    def no_channel(self) -> LoweringError:
        return LoweringError(f"kernel {self.name!r} uses primitives but has "
                             "no BlockChannel parameter")

    # ------------------------------------------------------------ static types

    def meet(self, a: Any, b: Any) -> Any:
        """What a local is where paths on which it is ``a`` and ``b`` join;
        tiles of one shape take ``a``'s dtype if the prologue finds it
        ``b``'s."""
        if a == b or not (isinstance(a, tuple) and isinstance(b, tuple)) \
                or a[0] != b[0] or all(map(self.constant, (a[1], b[1]))):
            return a if a == b else None
        self.guards[f"{a[1]} == {b[1]}"] = None
        return a

    def constant(self, dtype: str) -> bool:
        return isinstance(self.ns.get(dtype), np.dtype)

    def dt(self, dtype: np.dtype) -> str:
        """The generated constant holding ``dtype``."""
        if dtype not in self.dtypes:
            self.dtypes[dtype] = self.const(dtype)
        return self.dtypes[dtype]

    def extent(self, pair: Any) -> int | None:
        """The static ``hi - lo`` of a ``(lo, hi)`` range, or None."""
        try:
            lo, hi = pair
            (lc, lv), (hc, hv) = self.expr(lo), self.expr(hi)
            if lc and hc:
                return int(hv) - int(lv)
            if isinstance(hi, BinOp) and hi.op == "+" and hi.left == lo \
                    and self.is_int(lo) and self.is_int(hi.right):
                c, v = self.expr(hi.right)
                return int(v) if c else None
        except Exception:  # raises where the per-tile code generates
            pass
        return None

    def typed(self, s: TileOp) -> Any:
        """Tile op ``s``'s static ``(shape, dtype source)``, or None; a
        failing ``dot`` or row-op shape check raises the op's error."""
        op, a = s.op, s.args
        if op in ("zeros", "full"):
            shape = tuple(int(v) if c else -1 for c, v in map(self.expr, (
                a[0] if isinstance(a[0], tuple) else (a[0],))))
            n = 1 if op == "zeros" else 2
            return None if min(shape, default=0) < 0 else (shape, self.dt(
                resolve_dtype(a[n] if len(a) > n else "float32")))
        if op in ("load", "load_vec", "gather_rows"):
            if not isinstance(a[0], TensorRef) or a[0].rank is not None:
                return None
            dtype = f"{self.tensor(a[0].name)}.dtype"
            if op == "gather_rows":
                x, c = self.type_of(a[1]), self.extent(a[2])
                return None if not x or c is None or not x[0] \
                    else ((x[0][0], c), dtype)
            ext = tuple(map(self.extent, (a[1], a[2]) if op == "load"
                            else (a[1],)))
            return None if None in ext or min(ext) < 0 else (ext, dtype)
        if op in _BINARY:
            x, y = (((), self.dt(F32)) if isinstance(v, Expr)
                    else self.type_of(v) for v in a[:2])
            if not x or not y:
                return None
            try:
                shape = tuple(np.broadcast_shapes(x[0], y[0]))
            except ValueError:  # raises when it runs
                return None
            if self.constant(x[1]) and self.constant(y[1]):
                return shape, self.dt(np.result_type(self.ns[x[1]],
                                                     self.ns[y[1]]))
            return shape, self.hoist(f"np.result_type({x[1]}, {y[1]})")
        x = self.type_of(a[0])
        y = self.type_of(a[1]) if op == "dot" else x
        acc = s.kwargs.get("acc")
        if not x or not y or acc is not None and \
                self.local("tile", acc) not in self.known:
            return None
        (shape, dtype), ys = x, y[0]
        if op == "dot":
            if len(shape) != 2 or len(ys) != 2 or shape[1] != ys[0]:
                raise ShapeError(f"dot shape mismatch {shape} x {ys}")
            return (shape[0], ys[1]), self.dt(F32)
        if op in ("row_max", "row_sum"):
            if len(shape) != 2:
                raise ShapeError(f"{op} expects a 2-d tile, got {shape}")
            return (shape[0],), self.dt(F32)
        if op in ("exp", "log", "silu", "gelu", "cast"):
            return shape, self.dt(resolve_dtype(a[1]) if op == "cast" else F32)
        if op == "expand_dims":
            return (*shape, 1), dtype
        return x if op in ("relu", "neg", "copy") else None

    def nbytes(self, typ: tuple) -> str:
        """The prologue local holding a static tile's bytes."""
        size, dtype = math.prod(typ[0]), typ[1]
        return self.hoist(str(size * self.ns[dtype].itemsize)
                          if self.constant(dtype) else
                          f"{size} * {dtype}.itemsize")

    def folded(self, s: TileOp, typ: Any) -> tuple | None:
        """Shape-only code for ``s`` that static types decide: ``(value,
        seconds, HBM bytes)``, the costs prologue locals or None; None where
        ``s`` needs per-tile shapes or reads a scalar that may raise."""
        op, a = s.op, s.args
        index = a[1] if op == "scatter_add_rows" else None
        if not self.fold or not all(map(self.droppable, [
                e for x in (a[1:] if op in ("zeros", "full") else a)
                for e in (x if isinstance(x, tuple) else (x,))
                if isinstance(e, Expr)])) or isinstance(index, str) and \
                self.local("tile", index) not in self.known:
            return None
        if op in _STORES or op == "load_scalar":
            x = self.type_of(a[-1]) if op in _STORES else ()
            if x is None or not isinstance(a[0], TensorRef) or \
                    a[0].rank is not None:
                return None
            tensor = self.tensor(a[0].name)
            if op == "load_scalar":
                if not isinstance(a[1], Expr):
                    return None
                h = self.hoist(f"{tensor}.itemsize")
                return "0", self.hoist(f"{h} / feed"), h
            for p in a[1 + (op == "scatter_add_rows"):
                       2 if op == "store_vec" else 3]:
                self.pair(p)  # raises as the per-tile code does
            f = {"atomic_add": 2.0, "scatter_add_rows": 2.5}.get(op, 1.0)
            nb = self.nbytes(x)
            return None, self.hoist(f"{f!r} * {nb} / feed"), \
                self.hoist(f"{f!r} * {nb}")
        if typ is None:
            return None
        value = f"_tile({self.const(typ[0])}, {typ[1]})"
        if op in ("load", "load_vec", "gather_rows"):
            nb, f = self.nbytes(typ), "1.5 * " if op == "gather_rows" else ""
            return value, self.hoist(f"{f}{nb} / feed"), \
                self.hoist(f"{f}{nb}") if f else nb
        if op == "dot":
            (m, k), n = self.type_of(a[0])[0], typ[0][1]
            return value, self.hoist(f"mma_time({m}, {n}, {k})"), None
        if op in ("zeros", "full", "copy", "expand_dims"):
            return value, None, None
        size = math.prod(typ[0] if op in _BINARY else self.type_of(a[0])[0])
        return value, self.hoist(
            f"vtime({size}, {self.lit(ELEMENTWISE_FLOPS[op])}, 0.0)"), None

    # ------------------------------------------------------------- statements

    def block(self, stmts: list[Stmt], mode: str, acc: list = ()) -> None:
        outer, self.scope = self.scope, []
        try:
            for s in stmts:
                if mode == "active" and isinstance(s, (TileOp, Primitive,
                                                       Return)):
                    # a block that reaches a tile op or primitive has work
                    self.w(f"return {not isinstance(s, Return)}")
                    break
                mark, pad, known = len(self.lines), self.pad, self.known
                try:
                    self.stmt(s, mode, acc)
                except Exception as exc:  # raises when (and only if) it runs
                    del self.lines[mark:]
                    self.pad, self.known = pad, known
                    self.fail(s, exc)
        finally:
            # a path that skipped the suite reads the local, and may not
            # have bound it
            for name in self.scope:
                del self.consts[name]
            self.scope = outer
        self.last = self.known

    def fail(self, s: Stmt, exc: Exception) -> None:
        exc = self.failed.setdefault(id(s), exc)
        self.w(f"raise {self.const(exc)}.with_traceback(None)")

    def stmt(self, s: Stmt, mode: str, acc: list) -> None:
        if isinstance(s, AssignScalar):
            c, v = self.expr(s.value)
            target = self.local("scalar", s.target)
            self.w(f"{target} = {self.lit(v) if c else v}"
                   + ("  #pure" if self.droppable(s.value) else ""))
            self.known = {**self.known, target:
                          "int" if self.is_int(s.value) else None}
            if c and s.target in self.once and s.target not in self.consts:
                self.consts[s.target] = v
                self.scope.append(s.target)
        elif isinstance(s, TileOp):
            self.tile_stmt(s, mode, acc)
        elif isinstance(s, If):
            cond = self.src(s.cond)
            if mode == "probe":
                self.settle(acc)
            self.w(f"if {cond}:")
            then, other = self.nest(
                lambda: self.block(s.then, mode, acc)), self.known
            if s.orelse:
                self.w("else:")
                other = self.nest(lambda: self.block(s.orelse, mode, acc))
            self.known = {k: self.meet(v, other[k])
                          for k, v in then.items() if k in other}
        elif isinstance(s, For):
            mark, sums = len(self.lines), [list(p) for p in acc]
            while True:  # until no local the body assigns changes type
                entry, self.last = self.known, None
                self.loop(s, mode, acc)
                head = {k: self.meet(v, self.last[k])
                        for k, v in entry.items()} if self.last else entry
                if head == entry:
                    break
                del self.lines[mark:]
                self.known = head
                if sums:
                    acc[:] = [list(p) for p in sums]
        elif isinstance(s, Return):
            self.w("return")
        elif not isinstance(s, Primitive):
            raise LoweringError(f"unknown statement {type(s).__name__}")
        elif not self.has_channel:
            raise self.no_channel()
        else:
            self.primitive(s)
            if s.target is not None:
                self.known = {**self.known, self.local("tile", s.target): None}

    def tile_stmt(self, s: TileOp, mode: str, acc: list) -> None:
        # a result binds at once: only its own block reads it, and that
        # block stays suspended until the op's time has passed
        target = None if s.target is None else self.local(
            "scalar" if s.op == "load_scalar" else "tile", s.target)
        typ = self.typed(s)
        shaped = mode == "probe" or mode == "timed" and not self.numeric
        folded = self.folded(s, typ) if shaped else None
        slot, held = self.slots.get(id(s), (None, None)) \
            if mode == "timed" else (None, None)
        if slot is not None:  # issued one iteration early, free to use
            self.w(f"if {slot} is not None:")
            self.nest(lambda: self.w(f"{target}, {slot} = {slot}, None")
                      if held is None else self.w(
                          f"{slot} = None", f"{target} = _tile("
                          f"{self.const(held[0])}, {held[1]})  #pure"))
            self.w("else:")
            self.pad += "    "
        if folded is None:
            (sec, hbm, effect), value = self.tile_op(s, not shaped), "_v"
        else:
            (value, sec, hbm), effect = folded, ()
        if target is not None:
            self.w(f"{target} = {value}"
                   + ("" if folded is None else "  #pure"))
            self.known = {**self.known, target:
                          "int" if s.op == "load_scalar" else typ}
        if mode == "timed":
            self.charge(sec, hbm, "compute", effect)
        elif mode == "replay":
            self.w(*effect)
        else:
            # the ops that move HBM bytes spend load time, the others compute
            if sec is not None:
                self.add(acc, 0 if hbm is None else 1, sec)
            if hbm is not None:
                self.add(acc, 2, hbm)
        if slot is not None:
            self.pad = self.pad[:-4]

    def add(self, acc: list, i: int, term: str) -> None:
        """Emit probe sum ``acc[i] += term`` (``acc[i]``: its source, None
        once it is in its local, and its local); a sum of prologue locals
        stays one."""
        src, local = acc[i]
        if src in self.pro and term in self.pro:
            acc[i][0] = self.hoist(f"{src} + {term}")
        else:
            self.w(f"{local} += {term}" if src is None
                   else f"{local} = {src} + {term}")
            acc[i][0] = None

    def settle(self, acc: list) -> None:
        """Move a probe's sums into their locals, ahead of a branch."""
        for pair in acc:
            if pair[0] is not None:
                self.w(f"{pair[1]} = {pair[0]}")
                pair[0] = None

    def charge(self, sec: str | None, hbm: str | None, category: str,
               effect: tuple = ()) -> None:
        """Emit: take ``sec`` seconds, at least until ``hbm`` bytes cross the
        HBM pipe (None: nothing), then apply ``effect``."""
        if sec is None:  # takes no time, has no effect
            return
        if self.trace or hbm is not None:
            self.w("_t0 = sim.now")
        if hbm is None:
            self.w(f"_d = {sec}")
        else:
            self.w(f"_a = reserve_hbm({hbm}) if {hbm} > 0 else _t0")
            self.w(f"_d = max({sec}, _a - _t0)")
        self.w("if _d > 0:")
        self.nest(lambda: self.timeout("_d", category, effect))
        if effect:
            self.w("else:")
            self.nest(lambda: self.w(*effect))

    def timeout(self, dur: str, category: str, effect: tuple = ()) -> None:
        self.w(f"yield {dur}")
        self.record(category)
        self.w(*effect)

    def record(self, category: str) -> None:
        """Emit a trace record from ``_t0`` to now, if time passed."""
        if self.trace:
            self.w(f"if sim.now > _t0: record(rank, {category!r}, label, "
                   "_t0, sim.now)")

    # --------------------------------------------------------------- tile ops

    def tile_op(self, s: TileOp, numeric: bool) -> tuple:
        """Emit tile op ``s``, binding its value to ``_v``; returns its
        seconds and HBM bytes (sources, None for none) and the lines of its
        numpy effect.  ``numeric=False`` computes shapes and costs only."""
        op, a, kw, w = s.op, s.args, s.kwargs, self.w
        if op in ("zeros", "full"):
            exprs = a[0] if isinstance(a[0], tuple) else (a[0],)
            w(f"_sh = ({''.join(self.src(x, True) + ', ' for x in exprs)})")
            fill, n = (None, 1) if op == "zeros" else (self.src(a[1]), 2)
            dtype = self.const(resolve_dtype(a[n] if len(a) > n else "float32"))
            if fill is not None:
                w(f"_f = {fill}")
            data = "None" if not numeric else f"np.zeros(_sh, {dtype})" \
                if fill is None else f"np.full(_sh, _f, {dtype})"
            w(f"_v = _tile(_sh, {dtype}, {data})")
            return None, None, ()

        if op in ("load", "load_vec"):
            tensor, owner = self.ref(a[0])
            w(f"_r0, _r1 = {self.pair(a[1])}")
            if op == "load":
                w(f"_c0, _c1 = {self.pair(a[2])}")
                w("_sh = (_r1 - _r0, _c1 - _c0)")
                ranges, size = "((_r0, _r1), (_c0, _c1))", "_sh[0] * _sh[1]"
            else:
                w("_sh = (_r1 - _r0,)")
                ranges, size = "((_r0, _r1),)", "_sh[0]"
            w(f"_nb = {size} * {tensor}.itemsize")
            w("if min(_sh) < 0: raise ShapeError("
              "f'negative load extent {_sh}')")
            data = f"padded_to({tensor}.read_tile({ranges}), _sh, " \
                f"{tensor}.dtype)" if numeric else "None"
            w(f"_v = _tile(_sh, {tensor}.dtype, {data})")
            w(f"if {owner} == rank: _s = _nb / feed; _h = _nb")
            # a remote read reserves the interconnect
            w(f"else: _s = max(0.0, reserve({owner}, rank, _nb, 'p2p')[1] "
              "- sim.now); _h = 0.0")
            return "_s", "_h", ()

        if op in ("gather_rows", "load_scalar"):
            tensor, _ = self.ref(a[0], f"{op} requires a local tensor")
            if op == "load_scalar":
                w(f"_i = {self.src(a[1], True)}")
                w(f"_v = {tensor}.read_scalar(_i) if {tensor}.data is not None "
                  "else 0" if numeric else "_v = 0")
                w(f"_h = {tensor}.itemsize")
                return "_h / feed", "_h", ()
            w(f"_x = {self.operand(a[1])}")
            w(f"_c0, _c1 = {self.pair(a[2])}")
            w("_sh = (_x.shape[0], _c1 - _c0)")
            w(f"_nb = _sh[0] * _sh[1] * {tensor}.itemsize")
            data = "None"
            if numeric:
                w("if _x.data is None: raise ShapeError("
                  "'gather_rows index tile has no data')")
                data = f"padded_to({tensor}.gather_rows(_x.data, (_c0, _c1)), " \
                    f"_sh, {tensor}.dtype)"
            w(f"_v = _tile(_sh, {tensor}.dtype, {data})")
            # random-access gather: 1.5x streaming cost
            return "1.5 * _nb / feed", "1.5 * _nb", ()

        if op in _STORES:
            tensor, _ = self.ref(a[0], f"{op} requires a local tensor"
                                 if op == "scatter_add_rows" else
                                 f"{op} targets a remote tensor; use "
                                 "tl.tile_push_data")
            w(f"_w = {self.operand(a[1])}" if op == "scatter_add_rows"
              else f"_r0, _r1 = {self.pair(a[1])}")
            if op != "store_vec":
                w(f"_c0, _c1 = {self.pair(a[2])}")
            w(f"_x = {self.operand(a[-1])}")
            w("if not isinstance(_x, TileVal): raise LoweringError("
              f"{op + ' value must be a tile'!r})")
            w("_nb, _v = _x.nbytes, None")
            factor = {"atomic_add": 2.0, "scatter_add_rows": 2.5}.get(op, 1.0)
            effect = ()
            if numeric and op == "scatter_add_rows":
                w("if _w.data is None or _x.data is None: raise ShapeError("
                  "'scatter_add_rows needs numeric operands')")
                w("_ids = _w.data.astype(np.int64)")
                effect = (f"{tensor}.scatter_add_rows(_ids, (_c0, _c1), "
                          "_x.data)",)
            elif numeric:
                write = "accumulate" if op == "atomic_add" else "write"
                ranges = "((_r0, _r1),)" if op == "store_vec" \
                    else "((_r0, _r1), (_c0, _c1))"
                effect = (f"{tensor}.{write}_tile({ranges}, _x.data)",)
            return f"{factor!r} * _nb / feed", f"{factor!r} * _nb", effect

        if op == "dot":
            w(f"_x, _y = {self.operand(a[0])}, {self.operand(a[1])}")
            acc = kw.get("acc")
            w(f"_z = {'None' if acc is None else self.operand(acc)}")
            w("_xs, _ys = _x.shape, _y.shape")
            w("if len(_xs) != 2 or len(_ys) != 2 or _xs[1] != _ys[0]: "
              "raise ShapeError(f'dot shape mismatch {_xs} x {_ys}')")
            if numeric:
                w("_p = _x.data.astype(F32) @ _y.data.astype(F32)")
                w("if _z is not None and _z.data is not None: "
                  "_p = _p + _z.data.astype(F32)")
            w(f"_v = _tile((_xs[0], _ys[1]), F32, {'_p' if numeric else None})")
            return "mma_time(_xs[0], _ys[1], _xs[1])", None, ()

        if op not in ELEMENTWISE_FLOPS:
            raise LoweringError(f"unknown tile op {op!r}")
        flops, x = self.lit(ELEMENTWISE_FLOPS[op]), self.operand(a[0])
        if op in _BINARY:
            w(f"_x, _y = {x}, {self.operand(a[1])}")
            w(f"_v = apply_binary({op!r}, _x, _y)" if numeric else
              f"_v = _binary_stub({self.const({})}, _x, _y)")
            return f"vtime(_v.size, {flops}, 0.0)", None, ()
        dtype = resolve_dtype(a[1]) if op == "cast" else \
            F32 if op in ("exp", "log", "silu", "gelu", "row_max", "row_sum") \
            else None
        dtype = "_x.dtype" if dtype is None else self.const(dtype)
        w(f"_x = {x}")
        if numeric:
            w(f"_v = apply_unary({op!r}, _x, {dtype})")
        elif op == "expand_dims":
            w("_v = _tile((*_x.shape, 1), _x.dtype)")
        elif op in ("row_max", "row_sum"):
            w("if len(_x.shape) != 2: raise ShapeError("
              f"f'{op} expects a 2-d tile, got {{_x.shape}}')")
            w(f"_v = _tile((_x.shape[0],), {dtype})")
        else:
            w(f"_v = _tile(_x.shape, {dtype})")
        if op in ("copy", "expand_dims"):
            return None, None, ()
        return f"vtime(_x.size, {flops}, 0.0)", None, ()

    # ------------------------------------------------------------- primitives

    def primitive(self, s: Primitive) -> None:
        a, kw, name, w = s.args, s.kwargs, s.name, self.w
        if name == "producer_tile_notify":
            tid = self.src(a[0], True)
            mode = a[1] if len(a) > 1 else kw.get("mode", "p2p")
            to = "None" if kw.get("to") is None else self.src(kw["to"], True)
            w(f"for _b, _c, _n in {self.table('notify_posts')}[{tid}, "
              f"{self.lit(mode)}, {to}]:")
            self.nest(lambda: w("_b.post_add(_c, _n, rank)"))
            return
        if name == "peer_tile_notify":
            cell, dst = self.src(a[0], True), self.src(a[1], True)
            w(f"ch.peer_bank({dst}).post_add({cell}, 1, from_rank=rank)")
            return
        if name in ("consumer_tile_wait", "peer_tile_wait"):
            cell = self.src(a[0], True)
            rank = self.src(a[1], True) if name == "peer_tile_wait" else None
            count = self.src(kw.get("count", Const(1)), True)
            if self.trace:
                w("_t0 = sim.now")
            if rank is None:
                w(f"for _c, _n in {self.table('consumer_wait_list')}"
                  f"[{cell},]:")
                self.nest(lambda: w("yield ch.barriers.wait_geq(_c, _n)"))
            else:
                w(f"_c, _r, _n = {cell}, {rank}, {count}")
                w("yield ch.peer_bank(_r).wait_geq(_c, _n)")
            self.record("sync")
            return

        if name not in ("tile_push_data", "tile_pull_data"):
            raise LoweringError(f"unsupported primitive {name!r}")
        if not isinstance(a[0], TensorRef):
            raise LoweringError(f"{name} needs a tensor argument")
        tid_m = self.src(a[1], True)
        tid_n = self.src(a[2] if len(a) > 2 else Const(0), True)
        if self.trace:
            w("_t0 = sim.now")
        if name == "tile_push_data":
            typ = self.fold and not self.numeric and self.type_of(a[3])
            w(f"_i, _j = {tid_m}, {tid_n}" if typ else
              f"_i, _j, _x = {tid_m}, {tid_n}, {self.operand(a[3])}")
            w(f"_rg = {self.table('comm_tile_ranges')}[_i, _j]")
            tensor, owner = self.ref(a[0])
            w(f"_nb = {self.nbytes(typ) if typ else '_x.nbytes'}")
            write = f"{tensor}.write_tile(_rg, _x.data)"
            w(f"if {owner} == rank:")
            self.nest(lambda: self.charge("_nb / feed", "_nb", "comm",
                                          (write,) if self.numeric else ()))
            w("else:")
            self.pad += "    "
            w(f"_d = max(0.0, reserve(rank, {owner}, _nb, 'p2p')[1] - sim.now)")
            if self.numeric:
                w(f"sim.call_later(_d, lambda t={tensor}, r=_rg, d=_x.data: "
                  "t.write_tile(r, d))")
            w("if _d > 0:")
            self.nest(lambda: self.timeout("_d", "comm"))
            self.pad = self.pad[:-4]
            return
        # the payload is snapshotted at issue time on the source rank,
        # matching NVSHMEM get semantics
        w(f"_i = {tid_m}")
        w(f"_src, _rows, _cols = {self.table('pull_source')}[_i, {tid_n}]")
        w(f"_B = bindings.get({a[0].name!r})")
        w("if not isinstance(_B, list): raise LoweringError("
          "'tile_pull_data source must be symmetric')")
        w("_T = _B[_src]")
        w("if _rows[0] < 0 or _rows[1] > _T.shape[0]: raise LoweringError("
          "f\"tile_pull_data tile {_i} rows {_rows} fall outside rank "
          "{_src}'s shard\")")
        w("_sh = (int(_rows[1] - _rows[0]), int(_cols[1] - _cols[0]))")
        w("_nb = _sh[0] * _sh[1] * _T.itemsize")
        data = "padded_to(_T.read_tile((_rows, _cols)), _sh, _T.dtype)" \
            if self.numeric else "None"
        w(f"_v = _tile(_sh, _T.dtype, {data})")
        if s.target is not None:
            w(f"{self.local('tile', s.target)} = _v")
        w("_d = _nb / feed if _src == rank else "
          "max(0.0, reserve(_src, rank, _nb, 'p2p')[1] - sim.now)")
        w("if _d > 0:")
        self.nest(lambda: self.timeout("_d", "comm"))

    # ------------------------------------------------------------------ loops

    def loop(self, s: For, mode: str, acc: list) -> None:
        bounds = [self.expr(e) for e in (s.start, s.stop, s.step)]
        srcs = [self.lit(int(v)) if c else f"int({v})" for c, v in bounds]
        plan = self.plan(s) if s.pipelined else []
        if s.aggregable and any(isinstance(t, Primitive)
                                for t in walk_block(s.body)):
            raise LoweringError("primitive inside aggregable loop")
        known = None  # the iterations, when the bounds are constants
        if all(c for c, _ in bounds) and int(bounds[2][1]) != 0:
            known = range(*(int(v) for _, v in bounds))
            it = f"range({', '.join(srcs)})"
        else:
            it = self.fresh("_it")
            self.w(f"{it} = ({', '.join(srcs)})")
            self.w(f"if {it}[2] == 0: raise SimulationError('loop step of 0')")
            self.w(f"{it} = range(*{it})")
        var = self.local("scalar", s.var)
        trips = f"len({it})" if known is None else str(len(known))
        first = f"{it}[0]" if known is None or not known else str(known[0])
        entry, self.known = self.known, {**self.known, var: "int"}

        def steps():
            self.w(f"for {var} in {it}:")
            self.nest(lambda: (self.prefetch(plan),
                               self.block(s.body, "timed")))

        if mode == "active" and (s.aggregable or plan):
            # priced as a whole, or loading ahead, from its first trip
            self.w(f"if {trips}: return True")
        elif mode in ("replay", "active"):
            self.w(f"for {var} in {it}:")
            self.nest(lambda: self.block(s.body, mode))
        elif mode == "probe":
            # the trips times the cost of the first iteration
            def probe():
                per, nbytes = self.probe(s, var, first)
                self.add(acc, 0, self.fold_expr(f"{trips} * ({per})",
                                                trips, per))
                self.add(acc, 2, self.fold_expr(f"{trips} * {nbytes}",
                                                trips, nbytes))
            if known is None:
                self.settle(acc)
                self.w(f"if {it}:")
                self.nest(probe)
            elif known:
                probe()
        elif not s.aggregable or known is not None and len(known) < 2:
            steps()
        elif known is not None:
            self.aggregate(s, var, it, trips, first)
        else:
            self.w(f"if {trips} < 2:")
            self.nest(steps)
            self.w("else:")
            self.nest(lambda: self.aggregate(s, var, it, trips, first))
        self.known = entry

    def probe(self, s: For, var: str, first: str) -> tuple[str, str]:
        """Emit the probe of ``s``'s first iteration; returns the sources of
        one iteration's seconds and HBM bytes, prologue locals where every
        term of theirs is one."""
        acc = [[self.hoist("0.0") if self.fold else "0.0", self.fresh(p)]
               for p in ("_ac", "_al", "_ah")]
        self.w(f"{var} = {first}  #pure")
        known = self.known
        self.block(s.body, "probe", acc)
        self.known = known
        compute, load, nbytes = (src or local for src, local in acc)
        # pipelined loops overlap load and compute
        return self.fold_expr(f"max({load}, {compute})" if s.pipelined
                              else f"{load} + {compute}", load, compute), nbytes

    def aggregate(self, s: For, var: str, it: str, trips: str,
                  first: str) -> None:
        """Analytic pricing of a primitive-free loop, then, in numeric mode,
        every iteration replayed from the state before the probe."""
        if self.numeric:
            stmts = list(walk_block([s]))  # no primitives: no pulled tiles
            names = sorted({self.local("scalar", n) for n in map(
                scalar_target, stmts) if n} | {self.local("tile", t.target)
                for t in stmts if isinstance(t, TileOp) and t.target
                and t.op != "load_scalar"})
            saved = self.fresh("_sv")
            self.w(f"{saved} = tuple(map(locals().get, {tuple(names)!r}, "
                   f"(_UNSET,) * {len(names)}))")
        per, nbytes = self.probe(s, var, first)
        total = self.fold_expr(f"{trips} * {nbytes} * AGG_DRAM_DISCOUNT",
                               trips, nbytes)
        if total not in self.pro:
            self.w(f"_h = {total}")
            total = "_h"
        time = self.fold_expr(f"cost.MMA_PROLOGUE + {trips} * ({per})",
                              trips, per)
        self.w("_t0 = sim.now")
        self.w(f"_a = reserve_hbm({total}) if {total} > 0 else _t0")
        self.w(f"yield max({time}, _a - _t0)")
        self.record("compute")
        if self.numeric:
            self.w(f"{', '.join(names)}, = {saved}")
            for name in names:
                self.w(f"if {name} is _UNSET: del {name}")
            self.w(f"for {var} in {it}:")
            self.nest(lambda: self.block(s.body, "replay"))

    def plan(self, s: For) -> list[Stmt]:
        """The body statements a pipelined loop's prefetch replays: scalar
        assignments up to the last prefetchable load, and those loads."""
        plan: list[Stmt] = []
        for t in s.body:
            if isinstance(t, AssignScalar):
                plan.append(t)
            elif isinstance(t, TileOp) and t.prefetchable and t.op in (
                    "load", "load_vec"):
                mark = len(self.lines)
                try:
                    self.tile_op(t, self.numeric)
                except (LoweringError, ShapeError):
                    continue  # its statement raises when it runs
                finally:
                    del self.lines[mark:]
                plan.append(t)
        while plan and isinstance(plan[-1], AssignScalar):
            plan.pop()  # assignments after the last load address nothing
        return plan

    def prefetch(self, plan: list[Stmt]) -> None:
        """Hoist prefetchable loads to iteration start (pipeliner model):
        the assignments replay into shadow locals to materialize addresses,
        and values are snapshotted *now*, before the body's waits run, which
        is safe only for loads the consistency pass left unpinned.  A failed
        assignment ends the prefetch; a failed load is skipped."""
        if not plan:
            return
        self.w("try:")
        try:
            self.nest(lambda: [self.prefetch_one(t) for t in plan])
        finally:
            self.shadow = {}
        self.w("except (LoweringError, NameError): pass")

    def prefetch_one(self, t: Stmt) -> None:
        if isinstance(t, AssignScalar):
            try:
                value = self.src(t.value)
            except Exception as exc:
                self.fail(t, exc)
                return
            known = "int" if self.is_int(t.value) else None
            self.shadow[t.target] = "p" + self.local("scalar", t.target)
            self.w(f"{self.shadow[t.target]} = {value}")
            self.known = {**self.known, self.shadow[t.target]: known}
            return
        typ = self.typed(t)
        folded = None if self.numeric else self.folded(t, typ)
        slot = None if t.target is None else (
            self.slots.get(id(t)) or (self.fresh("pf"),))[0]
        if slot is not None:
            self.slots[id(t)] = (slot, folded and typ)
        self.w("try:")
        self.nest(lambda: (folded is None and self.tile_op(t, self.numeric),
                           slot and self.w(f"{slot} = "
                                           f"{'_v' if folded is None else 1}")))
        self.w("except (LoweringError, ShapeError, NameError): pass")

    # --------------------------------------------------------------- function

    def arguments(self) -> None:
        """Emit the scalars a block starts with: tensor parameters bound to
        numbers and the constexprs a statement reassigns."""
        reads = set().union(*map(scalar_reads, self.ir.walk_stmts()))
        for p in self.program.tensor_params:
            if p in reads:
                self.w(f"if isinstance(bindings[{p!r}], (int, float)): "
                       f"{self.local('scalar', p)} = bindings[{p!r}]")
        for k, v in self.reassigned.items():
            self.w(f"{self.local('scalar', k)} = {self.lit(v)}")

    def activity(self) -> Callable:
        """The activity function: ``(nblocks, bindings)`` -> the ids of the
        blocks whose scalar code reaches a tile op or a primitive, or
        raises, before it returns."""
        w = self.w
        self.pad = "            "
        self.block(self.ir.body, "active")
        body, self.lines, self.pad = self.lines, [], "    "
        if self.hoists:  # channel fields, once per launch and rank
            w("try:")
            self.nest(lambda: w(
                f"ch = bindings.get({self.ir.channel_param!r})",
                *(f"{h} = {e}" for e, h in self.hoists.items())))
            w("except Exception:  # each block raises where it reads one",
              "    return range(nblocks)")
        w("def active(bid):")
        self.pad += "    "
        self.arguments()
        source = "\n".join([
            "def activity(nblocks, bindings):", *self.lines,
            *_prune(["        try:", *(body or ["            pass"])]),
            "        except Exception:  # it raises when it runs",
            "            return True",
            "        return False",
            "    return [bid for bid in range(nblocks) if active(bid)]"])
        exec(compile(source, f"<kernel {self.name}>", "exec"), self.ns)
        return self.ns["activity"]

    def function(self) -> Callable:
        ir, name, w = self.ir, self.name, self.w
        self.pad = "        "
        self.block(ir.body, "timed")
        body = _prune(["    try:", *(self.lines or ["        pass"])])
        self.lines, self.pad = [], "    "
        # what a launch fixes, once per launch and rank (its blocks share
        # ``bindings``): the machine's handles, the channel tables, the
        # tensor arguments and, folded, the prologue values
        setup = [f"ch = bindings.get({ir.channel_param!r})"] \
            if self.has_channel else []
        setup += ["sim, cost, device = machine.sim, machine.cost, "
                  "machine.device(rank)",
                  "feed = cost.spec.smem_bandwidth_per_sm",
                  "reserve_hbm, reserve = device.reserve_hbm, "
                  "machine.interconnect.reserve",
                  "mma_time, vtime = cost.mma_time, cost.vector_tile_time"]
        if self.trace:
            setup.append("record = machine.record")
        if self.tables:
            setup.append(f"{', '.join(self.tables.values())}, = _tables("
                         f"bindings, ch, {', '.join(map(repr, self.tables))})")
        if self.fold:
            setup += [f"{t} = bindings[{tensor!r}][rank]"
                      for tensor, (t, _) in self.refs.items()]
            setup += [f"{h} = {e}" for e, h in self.hoists.items()]
            if self.guards:
                setup.append(f"if not ({' and '.join(self.guards)}): "
                             "raise LookupError")
        else:
            setup += [f"{t}, {o} = _ref(bindings, {tensor!r}, rank, {name!r})"
                      for tensor, (t, o) in self.refs.items()]
        used = set(re.findall(r"\w+", "\n".join(body)))
        live = [n for n in (
            "ch", "sim", "cost", "feed", "reserve_hbm", "reserve",
            "mma_time", "vtime", "record", *self.tables.values(),
            *(n for pair in self.refs.values() for n in pair),
            *self.hoists.values()) if n in used]
        key = self.const(object())
        launch = f"({''.join(n + ', ' for n in live)})"
        w(f"_P = bindings.get({key})", "if _P is None:")
        if self.fold:
            # unfolded where a rank-less tensor is not a list's own-rank
            # instance, a prologue value raises or dtypes differ
            self.nest(lambda: (w("try:"), self.nest(lambda: w(
                *setup, f"_P = {launch}")), w("except Exception:",
                                              "    _P = False",
                                              f"bindings[{key}] = _P")))
            w("if _P is False:")
            w(f"    return (yield from _function({self.const(self.program)}, "
              f"{(self.numeric, self.trace, False)!r})(machine, rank, bid, "
              "nblocks, bindings, label))")
        else:
            self.nest(lambda: w(*setup, f"_P = bindings[{key}] = {launch}"))
        if live:
            w(f"{', '.join(live)}, = _P")
        self.arguments()
        for slot, _ in self.slots.values():
            w(f"{slot} = None")
        source = "\n".join([
            "def block(machine, rank, bid, nblocks, bindings, label):",
            *self.lines, *body, "    except NameError as exc:",
            f"        _undefined(exc, {name!r}, {self.const(self.names)})",
            "        raise", "    if 0:", "        yield"])
        exec(compile(source, f"<kernel {name}>", "exec"), self.ns)
        return self.ns["block"]
