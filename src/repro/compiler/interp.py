"""Backend: lowers each compiled kernel once into closures and runs its blocks.

``compile_kernel`` calls :func:`lower` once per compiled program.
Expressions become closures over a block's scalar environment, with their
constants, the constexprs the kernel never reassigns and their
``BINARY_OPS``/``UNARY_OPS`` entries bound at lowering time; each tile op
and primitive becomes one closure over already-lowered operands.  One
:func:`run_block` call is one block (CTA) of the launch grid: a simulation
process running the lowered statements.  A statement runs in three modes:
``st(block)`` in the block's process advances simulated time (cost model),
applies numpy effects in numeric mode and drives signal banks and the
interconnect, returning None, a Timeout to yield or a generator to drive;
inside an aggregable loop, ``st(block, acc)`` adds one iteration's compute
seconds, load seconds and HBM bytes to ``acc`` (shapes and costs only) and
``st(block, REPLAY)`` applies its numpy effects untimed.

Scheduling semantics (compiler/passes.py sets the annotations):

* **aggregable loops** are priced analytically: the first iteration is
  probed, then one timed event covers all iterations (pipelined loops
  price ``max(load, compute)`` per iteration, otherwise the sum).  In
  numeric mode every iteration then replays, starting from the scalars
  and tiles the probe saw.
* **pipelined non-aggregable loops** prefetch their ``prefetchable`` loads
  at iteration start — address computation replayed from the body's scalar
  statements, value snapshotted *before* any wait primitive runs.  Loads
  pinned by the consistency pass execute in place, after their guards.
* **signal primitives** lower to release-semantics posts (fire and forget)
  and acquire-semantics waits on :class:`repro.memory.signals.SignalArray`.
* **data primitives and remote loads** reserve interconnect pipes; payloads
  land at arrival time, so unguarded remote reads observe stale data.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

import numpy as np

from repro.errors import LoweringError, RuntimeLaunchError, ShapeError, SimulationError
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
    scalar_target,
    walk_block,
)
from repro.compiler.values import (
    ELEMENTWISE_FLOPS,
    TileVal,
    apply_binary,
    apply_unary,
    padded_to,
)
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.sim.engine import Timeout

#: fraction of aggregable-loop load bytes that miss L2 and hit HBM
AGG_DRAM_DISCOUNT = 0.22
#: the scalar-environment slot of the block's BlockChannel
CHANNEL = "$channel"
#: slots of a probe's cost accumulator
COMPUTE, LOAD, HBM = 0, 1, 2
#: the accumulator argument that makes a statement replay numpy effects
REPLAY = "replay"
#: tile ops whose seconds are load time; the other ops' are compute time
LOAD_TIME_OPS = frozenset({"load", "load_vec", "gather_rows", "store",
                           "store_vec", "atomic_add", "load_scalar",
                           "scatter_add_rows"})
F32 = np.dtype(np.float32)
_new = object.__new__


class _Return(Exception):
    """A Return statement unwound the block."""


def _tile(shape: tuple[int, ...], dtype: np.dtype, data=None) -> TileVal:
    """A TileVal from a tuple of ints and an np.dtype, unchecked."""
    v = _new(TileVal)
    v.shape, v.dtype, v.data = shape, dtype, data
    return v


def _drive(b: "Block", stmts: tuple):
    """Run timed statements, yielding what they wait for."""
    for st in stmts:
        r = st(b)
        if r is not None:
            if r.__class__ is Timeout:
                yield r
            else:
                yield from r


def _charged(b: "Block", dur: float, t0: float, category: str, effect=None):
    yield Timeout(dur)
    b.record(category, t0)
    if effect is not None:
        effect()


class Block:
    """One block's run-time state: its scalar and tile environments and
    the machine it runs on."""

    __slots__ = ("s", "t", "prefetched", "name", "machine", "sim", "rank",
                 "device", "cost", "feed", "bindings", "execute", "trace",
                 "label")

    def __init__(self, program, machine, rank: int, block_id: int,
                 n_blocks: int, bindings: dict[str, Any], label: str):
        self.name, param = program.name, program.ir.channel_param
        s: dict[str, Any] = {"$bid": block_id, "$nblocks": n_blocks}
        if param is not None:
            s[CHANNEL] = bindings.get(param)
            if not isinstance(s[CHANNEL], BlockChannel):
                raise RuntimeLaunchError(
                    f"kernel {program.name!r} expects a BlockChannel for "
                    f"parameter {param!r}")
        s.update(program.constexprs)
        for p in program.tensor_params:
            if p not in bindings:
                raise RuntimeLaunchError(
                    f"kernel {program.name!r} missing argument {p!r}")
            if isinstance(bindings[p], (int, float)):
                s[p] = bindings[p]
        self.s, self.t = s, {}
        #: pipelined loops' loads issued one iteration early, by op
        self.prefetched: dict[int, TileVal] = {}
        self.machine, self.sim, self.cost = machine, machine.sim, machine.cost
        self.rank, self.device = rank, machine.device(rank)
        self.feed = machine.cost.spec.smem_bandwidth_per_sm
        self.bindings, self.label = bindings, label or program.name
        self.execute = machine.config.execute_numerics
        self.trace = machine.config.trace

    def record(self, category: str, t0: float) -> None:
        """Trace ``category`` from ``t0`` to now, if time passed."""
        if self.trace and self.sim.now > t0:
            self.machine.record(self.rank, category, self.label, t0,
                                self.sim.now)

    def charge(self, seconds: float, hbm: float, category: str, effect=None):
        """Take ``seconds``, at least until ``hbm`` bytes cross the HBM pipe,
        then apply ``effect``: None if no time passes, else a Timeout or
        generator to drive."""
        t0 = self.sim.now
        arrival = self.device.reserve_hbm(hbm) if hbm > 0 else t0
        dur = max(seconds, arrival - t0)
        if dur > 0:
            if effect is None and not self.trace:
                return Timeout(dur)
            return _charged(self, dur, t0, category, effect)
        if effect is not None:
            effect()
        return None

    def transfer(self, src: int, dst: int, nbytes: float) -> float:
        """Reserve the interconnect path; seconds until the data lands."""
        _start, arrival = self.machine.interconnect.reserve(src, dst, nbytes,
                                                            "p2p")
        return max(0.0, arrival - self.sim.now)


def run_block(program, machine, rank: int, block_id: int, n_blocks: int,
              bindings: dict[str, Any], label: str = ""):
    """Build the simulation-process generator for one block."""
    return _process(program.lowered, Block(program, machine, rank, block_id,
                                           n_blocks, bindings, label))


def _process(stmts: tuple, b: Block):
    try:
        yield from _drive(b, stmts)
    except _Return:
        pass
    return None


def lower(ir: KernelIR, constexprs: dict[str, Any]) -> tuple:
    """Lower ``ir``, annotated by the passes, into the statement closures
    :func:`run_block` drives."""
    return _Lowering(ir, constexprs).block(ir.body)


class _Lowering:
    """Builds one kernel's closures."""

    def __init__(self, ir: KernelIR, constexprs: dict[str, Any]):
        self.name, self.has_channel = ir.name, ir.channel_param is not None
        assigned = {scalar_target(s) for s in ir.walk_stmts()}
        #: constexprs no statement reassigns are constants
        self.consts = {k: v for k, v in constexprs.items()
                       if k not in assigned}
        self.ops: dict[int, Callable] = {}

    # ------------------------------------------------------------ expressions

    def expr(self, e: Any) -> tuple[bool, Any]:
        """``(True, value)`` for a constant, else ``(False, closure)`` over
        the scalar environment, which raises KeyError on an undefined
        scalar (:meth:`fn` reports it)."""
        if isinstance(e, Const):
            return True, e.value
        if isinstance(e, Name):
            if e.id in self.consts:
                return True, self.consts[e.id]
            return False, itemgetter(e.id)
        if isinstance(e, UnaryOp):
            fn, (c, v) = UNARY_OPS[e.op], self.expr(e.operand)
            return (True, fn(v)) if c else (False, lambda s: fn(v(s)))
        if isinstance(e, ChannelField):
            if not self.has_channel:
                raise self._no_channel()
            field = e.field_name
            return False, lambda s: s[CHANNEL].scalar_field(field)
        if not isinstance(e, BinOp):
            raise LoweringError(f"cannot evaluate expression {e!r}")
        (lc, lv), op = self.expr(e.left), e.op
        if op in ("and", "or"):
            if lc:  # short-circuits at lowering time
                return (True, lv) if bool(lv) == (op == "or") \
                    else self.expr(e.right)
            rf = self._closure(*self.expr(e.right))
            if op == "and":
                return False, lambda s: lv(s) and rf(s)
            return False, lambda s: lv(s) or rf(s)
        if op not in BINARY_OPS:
            raise LoweringError(f"unknown scalar op {op!r}")
        (rc, rv), fn = self.expr(e.right), BINARY_OPS[op]
        if lc and rc:
            return True, fn(lv, rv)
        if lc:
            return False, lambda s: fn(lv, rv(s))
        if rc:
            return False, lambda s: fn(lv(s), rv)
        return False, lambda s: fn(lv(s), rv(s))

    @staticmethod
    def _closure(const: bool, v: Any) -> Callable:
        return (lambda s: v) if const else v

    def fn(self, e: Any, cast: Callable | None = None) -> Callable:
        """``e``, passed through ``cast`` if given, as a closure over the
        scalar environment."""
        c, f = self.expr(e)
        if c:
            value = f if cast is None else cast(f)
            return lambda s: value
        undefined = self._undefined

        def root(s):
            try:
                return f(s) if cast is None else cast(f(s))
            except KeyError as exc:
                raise undefined(exc) from None
        return root

    def pair(self, arg: Any) -> Callable:
        """A ``(lo, hi)`` range argument as a closure returning two ints."""
        if not (isinstance(arg, tuple) and len(arg) == 2):
            raise LoweringError(f"expected (lo, hi) range, got {arg!r}")
        (lc, lo), (hc, hi) = self.expr(arg[0]), self.expr(arg[1])
        if lc and hc:
            value = int(lo), int(hi)
            return lambda s: value
        lo, hi = self._closure(lc, lo), self._closure(hc, hi)
        undefined, h, step = self._undefined, arg[1], None
        if isinstance(h, BinOp) and h.op == "+" and h.left == arg[0]:
            const, c = self.expr(h.right)  # (lo, lo + c) evaluates lo once
            step = c if const else None

        def pair(s):
            try:
                if step is not None:
                    v = lo(s)
                    return int(v), int(v + step)
                return int(lo(s)), int(hi(s))
            except KeyError as exc:
                raise undefined(exc) from None
        return pair

    def _undefined(self, exc: KeyError) -> LoweringError:
        return LoweringError(f"{self.name}: undefined scalar {exc.args[0]!r}")

    def operand(self, arg: Any) -> Callable:
        """A tile op operand: tile name -> TileVal, Expr -> scalar."""
        if isinstance(arg, str):
            def tile(b):
                try:
                    return b.t[arg]
                except KeyError:
                    raise LoweringError(f"undefined tile {arg!r}") from None
            return tile
        if not isinstance(arg, Expr):
            raise LoweringError(f"bad tile operand {arg!r}")
        f = self.fn(arg)
        return lambda b: f(b.s)

    def ref(self, ref: Any, local: str | None = None) -> Callable:
        """A tensor argument as ``block -> (SimTensor, owning rank)``, or,
        given ``local`` (the error for a remote one), ``block -> SimTensor``
        on the block's own rank."""
        if not isinstance(ref, TensorRef):
            raise LoweringError(f"expected a tensor argument, got {ref!r}")
        name = ref.name
        rank_f = None if ref.rank is None else self.fn(ref.rank, int)

        def resolve(b):
            bound = b.bindings.get(name)
            if isinstance(bound, list):
                rank = b.rank if rank_f is None else rank_f(b.s)
                if not 0 <= rank < len(bound):
                    raise RuntimeLaunchError(
                        f"tensor {name!r} indexed with rank {rank} out of "
                        f"range [0, {len(bound)})")
                return bound[rank], rank
            if isinstance(bound, SimTensor):
                if rank_f is not None and rank_f(b.s) != bound.rank:
                    raise RuntimeLaunchError(
                        f"tensor {name!r} is not symmetric; cannot index "
                        f"rank {rank_f(b.s)}")
                return bound, bound.rank
            raise RuntimeLaunchError(
                f"kernel {b.name!r}: no binding for tensor {name!r}"
                if bound is None else f"binding for {name!r} must be "
                f"SimTensor or list, got {type(bound).__name__}")
        if local is None:
            return resolve

        def resolve_local(b):
            tensor, owner = resolve(b)
            if owner != b.rank:
                raise LoweringError(local)
            return tensor
        return resolve_local

    def _no_channel(self) -> LoweringError:
        return LoweringError(f"kernel {self.name!r} uses primitives but has "
                             "no BlockChannel parameter")

    # ------------------------------------------------------------- statements

    def block(self, stmts: list[Stmt]) -> tuple:
        return tuple(self.stmt(s) for s in stmts)

    def stmt(self, s: Stmt) -> Callable:
        try:
            return self._stmt(s)
        except Exception as exc:  # raises when (and only if) it runs
            def fail(b, acc=None):
                raise exc.with_traceback(None)
            return fail

    def _stmt(self, s: Stmt) -> Callable:
        if isinstance(s, AssignScalar):
            target, f = s.target, self.fn(s.value)

            def assign(b, acc=None):
                b.s[target] = f(b.s)
            return assign
        if isinstance(s, TileOp):
            return self._tile_stmt(s)
        if isinstance(s, If):
            cond = self.fn(s.cond)
            then, orelse = self.block(s.then), self.block(s.orelse)

            def branch(b, acc=None):
                body = then if cond(b.s) else orelse
                if acc is None:
                    return _drive(b, body)
                for st in body:
                    st(b, acc)
            return branch
        if isinstance(s, For):
            return self._loop(s)
        if isinstance(s, Return):
            def ret(b, acc=None):
                raise _Return
            return ret
        if not isinstance(s, Primitive):
            raise LoweringError(f"unknown statement {type(s).__name__}")
        if not self.has_channel:
            raise self._no_channel()
        return self._primitive(s)

    def _tile_stmt(self, s: TileOp) -> Callable:
        # a result binds at once: only its own block reads it, and that
        # block stays suspended until the op's time has passed
        op, target, scalar = self.tile_op(s), s.target, s.op == "load_scalar"
        slot = LOAD if s.op in LOAD_TIME_OPS else COMPUTE
        key = id(s) if s.prefetchable and s.op in ("load", "load_vec") \
            and target is not None else None

        def tile_stmt(b, acc=None):
            if acc is None:
                val = None if key is None else b.prefetched.pop(key, None)
                if val is not None:  # issued one iteration early
                    b.t[target] = val
                    return None
                val, t, hbm, effect = op(b, b.execute)
            else:
                val, t, hbm, effect = op(b, acc is REPLAY)
            if target is not None:
                (b.s if scalar else b.t)[target] = val
            if acc is None:
                return b.charge(t, hbm, "compute", effect)
            if acc is not REPLAY:
                acc[slot] += t
                acc[HBM] += hbm
            elif effect is not None:
                effect()
        return tile_stmt

    def _loop(self, s: For) -> Callable:
        start, stop, step = (self.fn(s.start, int), self.fn(s.stop, int),
                             self.fn(s.step, int))
        var, pipelined, aggregable = s.var, s.pipelined, s.aggregable
        body = self.block(s.body)
        prefetch = self._prefetcher(s, body) if pipelined else None
        if aggregable and any(isinstance(t, Primitive)
                              for t in walk_block(s.body)):
            raise LoweringError("primitive inside aggregable loop")

        def steps(b, it):
            sc = b.s
            for i in it:
                sc[var] = i
                if prefetch is not None:
                    prefetch(b)
                for st in body:  # _drive, inlined: this runs per iteration
                    r = st(b)
                    if r is not None:
                        if r.__class__ is Timeout:
                            yield r
                        else:
                            yield from r

        def replay(b, dur, t0, before):
            yield Timeout(dur)
            b.record("compute", t0)
            if before is not None:
                for env, saved in zip((b.s, b.t), before):
                    env.clear()
                    env.update(saved)
                loop(b, REPLAY)

        def loop(b, acc=None):
            sc = b.s
            lo, hi, inc = start(sc), stop(sc), step(sc)
            if inc == 0:
                raise SimulationError("loop step of 0")
            it = range(lo, hi, inc)
            if acc is REPLAY:
                for i in it:
                    sc[var] = i
                    for st in body:
                        st(b, REPLAY)
            elif acc is not None:
                # probe: the trips times the cost of the first iteration
                if it:
                    sc[var] = it[0]
                    one = [0.0, 0.0, 0.0]
                    for st in body:
                        st(b, one)
                    acc[COMPUTE] += len(it) * (
                        max(one[LOAD], one[COMPUTE]) if pipelined
                        else one[LOAD] + one[COMPUTE])
                    acc[HBM] += len(it) * one[HBM]
            elif not aggregable or len(it) < 2:
                return steps(b, it)
            else:
                # analytic pricing of a primitive-free loop
                before = (dict(sc), dict(b.t)) if b.execute else None
                acc = [0.0, 0.0, 0.0]
                loop(b, acc)
                hbm = acc[HBM] * AGG_DRAM_DISCOUNT
                t0 = b.sim.now
                arrival = b.device.reserve_hbm(hbm) if hbm > 0 else t0
                dur = max(b.cost.MMA_PROLOGUE + acc[COMPUTE], arrival - t0)
                if before is None and not b.trace:
                    return Timeout(dur)
                return replay(b, dur, t0, before)
        return loop

    def _prefetcher(self, s: For, body: tuple) -> Callable | None:
        """Hoist prefetchable loads to iteration start (pipeliner model).

        Scalar statements are replayed to materialize addresses; values are
        snapshotted *now*, i.e. potentially before the body's waits run —
        which is safe only for loads the consistency pass left unpinned.
        The prefetched value costs nothing at its use point (it overlapped
        with the previous iteration).  None when there is no such load.
        """
        plan: list[tuple[Callable | None, Any]] = []
        for t, st in zip(s.body, body):
            if isinstance(t, AssignScalar):
                plan.append((st, None))
            elif isinstance(t, TileOp) and t.prefetchable and t.op in (
                    "load", "load_vec"):
                try:
                    plan.append((None, (id(t), self.tile_op(t))))
                except (LoweringError, ShapeError):
                    pass  # its statement raises when it runs
        while plan and plan[-1][1] is None:
            plan.pop()  # assignments after the last load address nothing
        if not plan:
            return None

        def prefetch(b):
            sc = b.s
            saved = dict(sc)
            for assign, load in plan:
                if load is None:
                    try:
                        assign(b)
                    except LoweringError:
                        break  # address depends on a tile/wait result; stop
                    continue
                try:
                    b.prefetched[load[0]] = load[1](b, b.execute)[0]
                except (LoweringError, ShapeError):
                    pass
            sc.clear()  # the replayed assignments happen again in the body
            sc.update(saved)
        return prefetch

    # --------------------------------------------------------------- tile ops

    def tile_op(self, s: TileOp) -> Callable:
        """``op(block, numeric) -> (value, seconds, hbm_bytes, effect)``:
        ``effect`` is None or applies a numpy write, and ``numeric=False``
        computes shapes and costs only."""
        if id(s) not in self.ops:
            self.ops[id(s)] = self._tile_op(s.op, s.args, s.kwargs)
        return self.ops[id(s)]

    def _tile_op(self, op: str, a: tuple, kw: dict) -> Callable:
        if op in ("zeros", "full"):
            exprs = a[0] if isinstance(a[0], tuple) else (a[0],)
            dims = [self.fn(x, int) for x in exprs]
            fill, n = (None, 1) if op == "zeros" else (self.fn(a[1]), 2)
            dtype = resolve_dtype(a[n] if len(a) > n else "float32")

            def new(b, numeric):
                shape = tuple([d(b.s) for d in dims])
                value = None if fill is None else fill(b.s)
                data = None if not numeric else np.zeros(shape, dtype) \
                    if fill is None else np.full(shape, value, dtype)
                return _tile(shape, dtype, data), 0.0, 0.0, None
            return new

        if op in ("load", "load_vec"):
            ref, rows = self.ref(a[0]), self.pair(a[1])
            cols = self.pair(a[2]) if op == "load" else None

            def load(b, numeric):
                tensor, owner = ref(b)
                if cols is None:
                    span = rows(b.s)
                    ranges, shape = (span,), (span[1] - span[0],)
                    nbytes = shape[0] * tensor.itemsize
                else:
                    ranges = (r0, r1), (c0, c1) = rows(b.s), cols(b.s)
                    shape = (r1 - r0, c1 - c0)
                    nbytes = shape[0] * shape[1] * tensor.itemsize
                if min(shape) < 0:
                    raise ShapeError(f"negative load extent {shape}")
                data = padded_to(tensor.read_tile(ranges), shape,
                                 tensor.dtype) if numeric else None
                val = _tile(shape, tensor.dtype, data)
                if owner == b.rank:
                    return val, nbytes / b.feed, nbytes, None
                # remote read over the interconnect (pull)
                return val, b.transfer(owner, b.rank, nbytes), 0.0, None
            return load

        if op in ("gather_rows", "load_scalar"):
            tensor_f = self.ref(a[0], f"{op} requires a local tensor")
            if op == "load_scalar":
                idx = self.fn(a[1], int)

                def load_scalar(b, numeric):
                    tensor, i = tensor_f(b), idx(b.s)
                    value = tensor.read_scalar(i) \
                        if numeric and tensor.data is not None else 0
                    return value, tensor.itemsize / b.feed, tensor.itemsize, \
                        None
                return load_scalar
            idx, cols = self.operand(a[1]), self.pair(a[2])

            def gather(b, numeric):
                tensor, iv, (c0, c1) = tensor_f(b), idx(b), cols(b.s)
                shape = (iv.shape[0], c1 - c0)
                nbytes = shape[0] * shape[1] * tensor.itemsize
                data = None
                if numeric:
                    if iv.data is None:
                        raise ShapeError("gather_rows index tile has no data")
                    data = padded_to(tensor.gather_rows(iv.data, (c0, c1)),
                                     shape, tensor.dtype)
                # random-access gather: 1.5x streaming cost
                return (_tile(shape, tensor.dtype, data),
                        1.5 * nbytes / b.feed, 1.5 * nbytes, None)
            return gather

        if op in ("store", "store_vec", "atomic_add", "scatter_add_rows"):
            tensor_f = self.ref(a[0], f"{op} requires a local tensor"
                                if op == "scatter_add_rows" else
                                f"{op} targets a remote tensor; use "
                                "tl.tile_push_data")
            rows = self.operand(a[1]) if op == "scatter_add_rows" \
                else self.pair(a[1])
            cols = None if op == "store_vec" else self.pair(a[2])
            val_f = self.operand(a[-1])
            factor = {"atomic_add": 2.0, "scatter_add_rows": 2.5}.get(op, 1.0)

            def store(b, numeric):
                tensor = tensor_f(b)
                where = rows(b) if op == "scatter_add_rows" else rows(b.s)
                ranges = (where,) if cols is None else (where, cols(b.s))
                val = val_f(b)
                if not isinstance(val, TileVal):
                    raise LoweringError(f"{op} value must be a tile")
                nbytes, data, effect = val.nbytes, val.data, None
                if numeric and op == "scatter_add_rows":
                    if where.data is None or data is None:
                        raise ShapeError(
                            "scatter_add_rows needs numeric operands")
                    ids = where.data.astype(np.int64)

                    def effect():
                        tensor.scatter_add_rows(ids, ranges[1], data)
                elif numeric:
                    write = tensor.accumulate_tile if op == "atomic_add" \
                        else tensor.write_tile

                    def effect():
                        write(ranges, data)
                return None, factor * nbytes / b.feed, factor * nbytes, effect
            return store

        if op == "dot":
            lhs, rhs = self.operand(a[0]), self.operand(a[1])
            acc = None if kw.get("acc") is None else self.operand(kw["acc"])

            def dot(b, numeric):
                x, y = lhs(b), rhs(b)
                acc_val = None if acc is None else acc(b)
                if len(x.shape) != 2 or len(y.shape) != 2 or \
                        x.shape[1] != y.shape[0]:
                    raise ShapeError(
                        f"dot shape mismatch {x.shape} x {y.shape}")
                (m, k), n = x.shape, y.shape[1]
                data = None
                if numeric:
                    data = x.data.astype(np.float32) @ \
                        y.data.astype(np.float32)
                    if acc_val is not None and acc_val.data is not None:
                        data = data + acc_val.data.astype(np.float32)
                return (_tile((m, n), F32, data), b.cost.mma_time(m, n, k),
                        0.0, None)
            return dot

        if op not in ELEMENTWISE_FLOPS:
            raise LoweringError(f"unknown tile op {op!r}")
        flops, x_f = ELEMENTWISE_FLOPS[op], self.operand(a[0])
        if op in ("add", "sub", "mul", "div", "maximum_tile", "minimum_tile"):
            y_f, stubs = self.operand(a[1]), {}

            def binary(b, numeric):
                x, y = x_f(b), y_f(b)
                if numeric:
                    out = apply_binary(op, x, y)
                else:
                    key = tuple((v.shape, v.dtype) if isinstance(v, TileVal)
                                else ((), F32) for v in (x, y))
                    if key not in stubs:
                        (sa, da), (sb, db) = key
                        stubs[key] = (tuple(np.broadcast_shapes(sa, sb)),
                                      np.result_type(da, db))
                    out = _tile(*stubs[key])
                return out, b.cost.vector_tile_time(out.size, flops, 0.0), \
                    0.0, None
            return binary
        dtype = resolve_dtype(a[1]) if op == "cast" else \
            F32 if op in ("exp", "log", "silu", "gelu", "row_max", "row_sum") \
            else None
        if op in ("row_max", "row_sum"):
            reduce = np.max if op == "row_max" else np.sum

        def elementwise(b, numeric):
            x = x_f(b)
            if numeric and op in ("exp", "log", "relu", "neg", "silu", "gelu"):
                out = apply_unary(op, x)
            else:
                data = x.data if numeric else None
                shape = x.shape
                if op == "cast" and data is not None:
                    data = data.astype(dtype)
                elif op == "copy" and data is not None:
                    data = data.copy()
                elif op == "expand_dims":
                    shape = (*x.shape, 1)
                    data = None if data is None else data.reshape(shape)
                elif op in ("row_max", "row_sum"):
                    if len(x.shape) != 2:
                        raise ShapeError(
                            f"{op} expects a 2-d tile, got {x.shape}")
                    shape = (x.shape[0],)
                    data = None if data is None else reduce(
                        data.astype(np.float32), axis=1)
                out = _tile(shape, dtype or x.dtype, data)
            seconds = 0.0 if op in ("copy", "expand_dims") else \
                b.cost.vector_tile_time(x.size, flops, 0.0)
            return out, seconds, 0.0, None
        return elementwise

    # ------------------------------------------------------------- primitives

    def _primitive(self, s: Primitive) -> Callable:
        a, kw, name = s.args, s.kwargs, s.name
        if name == "producer_tile_notify":
            tid = self.fn(a[0], int)
            mode = a[1] if len(a) > 1 else kw.get("mode", "p2p")
            to = None if kw.get("to") is None else self.fn(kw["to"], int)

            def notify(b):
                sc = b.s
                for bank, cell, amount in sc[CHANNEL].notify_posts(
                        tid(sc), mode, None if to is None else to(sc)):
                    bank.post_add(cell, amount, from_rank=b.rank)
            return notify

        if name == "peer_tile_notify":
            cell, dst = self.fn(a[0], int), self.fn(a[1], int)

            def peer_notify(b):
                sc = b.s
                sc[CHANNEL].peer_bank(dst(sc)).post_add(cell(sc), 1,
                                                       from_rank=b.rank)
            return peer_notify

        if name in ("consumer_tile_wait", "peer_tile_wait"):
            cell = self.fn(a[0], int)
            rank = self.fn(a[1], int) if name == "peer_tile_wait" else None
            count = self.fn(kw.get("count", Const(1)), int)

            def wait(b):
                sc, t0 = b.s, b.sim.now
                ch = sc[CHANNEL]
                if rank is None:
                    for channel_idx, threshold in ch.consumer_wait_list(
                            cell(sc)):
                        yield ch.barriers.wait_geq(channel_idx, threshold)
                else:
                    c, r, n = cell(sc), rank(sc), count(sc)
                    yield ch.peer_bank(r).wait_geq(c, n)
                b.record("sync", t0)
            return wait

        if name not in ("tile_push_data", "tile_pull_data"):
            raise LoweringError(f"unsupported primitive {name!r}")
        if not isinstance(a[0], TensorRef):
            raise LoweringError(f"{name} needs a tensor argument")
        tid_m = self.fn(a[1], int)
        tid_n = self.fn(a[2] if len(a) > 2 else Const(0), int)
        if name == "tile_push_data":
            val_f, ref = self.operand(a[3]), self.ref(a[0])

            def push(b):
                sc, t0 = b.s, b.sim.now
                i, j, val = tid_m(sc), tid_n(sc), val_f(b)
                ranges = sc[CHANNEL].comm_tile_ranges(i, j)
                dst, dst_rank = ref(b)
                data = val.data

                def effect():
                    dst.write_tile(ranges, data)
                if dst_rank == b.rank:
                    return b.charge(val.nbytes / b.feed, val.nbytes, "comm",
                                    effect if b.execute else None)
                delay = b.transfer(b.rank, dst_rank, val.nbytes)
                if b.execute:
                    b.sim.call_later(delay, effect)
                return _charged(b, delay, t0, "comm") if delay > 0 else None
            return push

        # the payload is snapshotted at issue time on the source rank,
        # matching NVSHMEM get semantics
        source, target = a[0].name, s.target

        def pull(b):
            t0, sc = b.sim.now, b.s
            i = tid_m(sc)
            src_rank, rows, cols = sc[CHANNEL].pull_source(i, tid_n(sc))
            bound = b.bindings.get(source)
            if not isinstance(bound, list):
                raise LoweringError("tile_pull_data source must be symmetric")
            src = bound[src_rank]
            if rows[0] < 0 or rows[1] > src.shape[0]:
                raise LoweringError(
                    f"tile_pull_data tile {i} rows {rows} fall outside "
                    f"rank {src_rank}'s shard")
            shape = (int(rows[1] - rows[0]), int(cols[1] - cols[0]))
            nbytes = shape[0] * shape[1] * src.itemsize
            data = padded_to(src.read_tile((rows, cols)), shape, src.dtype) \
                if b.execute else None
            if target is not None:
                b.t[target] = _tile(shape, src.dtype, data)
            delay = nbytes / b.feed if src_rank == b.rank \
                else b.transfer(src_rank, b.rank, nbytes)
            return _charged(b, delay, t0, "comm") if delay > 0 else None
        return pull
