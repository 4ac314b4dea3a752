"""AST frontend: Python kernel source -> tile IR.

Mirrors the paper's compilation flow (Figure 7): the decorated function's
source is parsed with :mod:`ast`; tile operations and TileLink primitives
are recognized as ``tl.*`` calls and translated into
:class:`repro.lang.ir.KernelIR`.

Supported Python subset (anything else raises :class:`CompileError` with
the offending line):

* assignments to simple names (tuples of scalars allowed), ``+=`` etc.;
* ``for`` over ``range(...)`` with scalar bounds;
* ``if``/``elif``/``else`` on scalar conditions; bare ``return``;
* scalar arithmetic (``+ - * / // % **`` comparisons, ``and``/``or``);
* ``tl.*`` tile ops and primitives; tensor params indexed by rank
  (``buffers[to_rank]``); ``channel.<field>`` metadata reads.

Names are *category-stable*: a name that ever holds a tile may not be
reused as a scalar (and vice versa) — the same restriction Triton imposes.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable

from repro.errors import CompileError
from repro.lang import tl as tl_mod
from repro.lang.ir import (
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
    inherit_linenos,
)

_BINOPS: dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Div: "/", ast.Pow: "**",
}
_CMPOPS: dict[type, str] = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}
_TILE_BINOPS: dict[type, str] = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
}

#: BlockChannel fields kernels may read (paper Fig. 7's special argument).
CHANNEL_FIELDS = {
    "rank", "num_ranks", "num_barriers", "num_producer_blocks",
    "num_consumer_blocks", "producer_threshold", "comm_blocks",
}


def compile_function(fn: Callable) -> KernelIR:
    """Parse and translate a kernel function into IR."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise CompileError(f"cannot fetch source of {fn!r}: {exc}") from exc
    tree = ast.parse(source)
    fdefs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(fdefs) != 1:
        raise CompileError("expected exactly one function definition")
    return _Translator(fdefs[0], source).translate()


class _Translator:
    def __init__(self, fdef: ast.FunctionDef, source: str):
        self.fdef = fdef
        self.source = source
        self.params: list[str] = []
        self.constexpr_params: list[str] = []
        self.channel_param: str | None = None
        self.tile_vars: set[str] = set()
        self.scalar_vars: set[str] = set()
        self._tmp = 0

    # -- helpers ---------------------------------------------------------------

    def err(self, msg: str, node: ast.AST | None = None) -> CompileError:
        lineno = getattr(node, "lineno", None)
        return CompileError(msg, lineno=lineno, source=self.source)

    def fresh(self) -> str:
        self._tmp += 1
        return f"%t{self._tmp}"

    def mark_tile(self, name: str, node: ast.AST) -> None:
        if name in self.scalar_vars:
            raise self.err(f"name {name!r} used as both scalar and tile", node)
        self.tile_vars.add(name)

    def mark_scalar(self, name: str, node: ast.AST) -> None:
        if name in self.tile_vars:
            raise self.err(f"name {name!r} used as both scalar and tile", node)
        self.scalar_vars.add(name)

    # -- signature --------------------------------------------------------------

    def translate(self) -> KernelIR:
        args = self.fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise self.err("kernels take simple positional parameters only",
                           self.fdef)
        for a in args.args:
            self.params.append(a.arg)
            ann = a.annotation
            label = self._annotation_label(ann)
            if label == "constexpr":
                self.constexpr_params.append(a.arg)
                self.mark_scalar(a.arg, a)
            elif label == "BlockChannel":
                if self.channel_param is not None:
                    raise self.err("only one BlockChannel parameter allowed", a)
                self.channel_param = a.arg
        body = self.block(self.fdef.body)
        # backstop: synthesized nodes inherit the nearest preceding line so
        # verifier/analyzer findings never point at "line 0"
        inherit_linenos(body, default=self.fdef.lineno)
        return KernelIR(
            name=self.fdef.name,
            params=self.params,
            constexpr_params=self.constexpr_params,
            channel_param=self.channel_param,
            body=body,
            source=self.source,
        )

    @staticmethod
    def _annotation_label(ann: ast.expr | None) -> str | None:
        if ann is None:
            return None
        if isinstance(ann, ast.Attribute):
            return ann.attr
        if isinstance(ann, ast.Name):
            return ann.id
        return None

    # -- statements --------------------------------------------------------------

    def block(self, stmts: list[ast.stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for node in stmts:
            out.extend(self.stmt(node))
        return out

    def stmt(self, node: ast.stmt) -> list[Stmt]:
        if isinstance(node, ast.Assign):
            return self._assign(node)
        if isinstance(node, ast.AugAssign):
            return self._aug_assign(node)
        if isinstance(node, ast.Expr):
            return self._expr_stmt(node)
        if isinstance(node, ast.For):
            return self._for(node)
        if isinstance(node, ast.If):
            return self._if(node)
        if isinstance(node, ast.Return):
            if node.value is not None:
                raise self.err("kernels cannot return values", node)
            return [Return(lineno=node.lineno)]
        if isinstance(node, ast.Pass):
            return []
        if isinstance(node, (ast.Expr, ast.AnnAssign)):
            raise self.err("unsupported statement", node)
        raise self.err(f"unsupported statement {type(node).__name__}", node)

    def _assign(self, node: ast.Assign) -> list[Stmt]:
        if len(node.targets) != 1:
            raise self.err("chained assignment unsupported", node)
        target = node.targets[0]
        if isinstance(target, ast.Tuple):
            if not isinstance(node.value, ast.Tuple) or \
                    len(target.elts) != len(node.value.elts):
                raise self.err("tuple assignment needs matching tuple of "
                               "scalar expressions", node)
            out: list[Stmt] = []
            for t, v in zip(target.elts, node.value.elts):
                if not isinstance(t, ast.Name):
                    raise self.err("tuple targets must be names", node)
                self.mark_scalar(t.id, node)
                out.append(AssignScalar(t.id, self.scalar(v),
                                        lineno=node.lineno))
            return out
        if not isinstance(target, ast.Name):
            raise self.err("assignment target must be a simple name", node)
        name = target.id
        # scalar loads from memory (dynamic-mapping tables): tl.load_scalar
        if isinstance(node.value, ast.Call) and \
                self._tl_name(node.value) in tl_mod.SCALAR_LOAD_FNS:
            stmts, op = self._tile_call(node.value,
                                        self._tl_name(node.value),
                                        target=name)
            self.mark_scalar(name, node)
            return stmts + [op]
        if self._is_tile_expr(node.value):
            stmts, _ = self.tile(node.value, target=name)
            self.mark_tile(name, node)
            return stmts
        self.mark_scalar(name, node)
        return [AssignScalar(name, self.scalar(node.value),
                             lineno=node.lineno)]

    def _aug_assign(self, node: ast.AugAssign) -> list[Stmt]:
        if not isinstance(node.target, ast.Name):
            raise self.err("augmented target must be a simple name", node)
        name = node.target.id
        opcls = type(node.op)
        if name in self.tile_vars:
            # fused accumulate: acc += tl.dot(a, b) lowers into dot's acc slot
            if opcls is ast.Add and self._is_tl_call(node.value, "dot"):
                stmts, _ = self.tile(node.value, target=name, dot_acc=name)
                return stmts
            if opcls not in _TILE_BINOPS:
                raise self.err("unsupported tile augmented op", node)
            rhs_stmts, rhs = self._tile_operand(node.value)
            op = TileOp(_TILE_BINOPS[opcls], target=name, args=(name, rhs),
                        lineno=node.lineno)
            return rhs_stmts + [op]
        if opcls not in _BINOPS:
            raise self.err("unsupported scalar augmented op", node)
        self.mark_scalar(name, node)
        return [AssignScalar(name, BinOp(_BINOPS[opcls], Name(name),
                                         self.scalar(node.value)),
                             lineno=node.lineno)]

    def _expr_stmt(self, node: ast.Expr) -> list[Stmt]:
        call = node.value
        if isinstance(call, ast.Constant) and isinstance(call.value, str):
            return []  # docstring
        if not isinstance(call, ast.Call):
            raise self.err("bare expressions must be tl calls", node)
        fname = self._tl_name(call)
        if fname is None:
            raise self.err("only tl.* calls allowed as statements", node)
        if fname in tl_mod.PRIMITIVES:
            return self._primitive(call, fname, target=None)
        if fname in tl_mod.EFFECT_FNS:
            stmts, op = self._tile_call(call, fname, target=None)
            return stmts + [op]
        if fname not in tl_mod.VOCABULARY:
            raise self.err(f"unknown tl function tl.{fname}", node)
        raise self.err(f"tl.{fname} produces a value; assign it", node)

    def _for(self, node: ast.For) -> list[Stmt]:
        if node.orelse:
            raise self.err("for/else unsupported", node)
        if not isinstance(node.target, ast.Name):
            raise self.err("loop variable must be a simple name", node)
        it = node.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range"):
            raise self.err("for loops must iterate over range(...)", node)
        bounds = [self.scalar(a) for a in it.args]
        if len(bounds) == 1:
            start, stop, step = Const(0), bounds[0], Const(1)
        elif len(bounds) == 2:
            start, stop, step = bounds[0], bounds[1], Const(1)
        elif len(bounds) == 3:
            start, stop, step = bounds
        else:
            raise self.err("range() takes 1-3 arguments", node)
        self.mark_scalar(node.target.id, node)
        body = self.block(node.body)
        return [For(node.target.id, start, stop, step, body, lineno=node.lineno)]

    def _if(self, node: ast.If) -> list[Stmt]:
        cond = self.scalar(node.test)
        then = self.block(node.body)
        orelse = self.block(node.orelse) if node.orelse else []
        return [If(cond, then, orelse, lineno=node.lineno)]

    # -- tl call plumbing -------------------------------------------------------

    def _tl_name(self, call: ast.Call) -> str | None:
        f = call.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id == "tl":
            return f.attr
        return None

    def _is_tl_call(self, node: ast.expr, name: str) -> bool:
        return isinstance(node, ast.Call) and self._tl_name(node) == name

    def _primitive(self, call: ast.Call, fname: str,
                   target: str | None) -> list[Stmt]:
        stmts: list[Stmt] = []
        args: list[Any] = []
        for a in call.args:
            stmts_a, val = self._any_operand(a)
            stmts.extend(stmts_a)
            args.append(val)
        kwargs: dict[str, Any] = {}
        for kw in call.keywords:
            if kw.arg is None:
                raise self.err("**kwargs unsupported", call)
            stmts_k, val = self._any_operand(kw.value)
            stmts.extend(stmts_k)
            kwargs[kw.arg] = val
        prim = Primitive(fname, tuple(args), kwargs, target=target,
                         lineno=call.lineno)
        stmts.append(prim)
        return stmts

    def _tile_call(self, call: ast.Call, fname: str,
                   target: str | None, dot_acc: str | None = None
                   ) -> tuple[list[Stmt], TileOp]:
        stmts: list[Stmt] = []
        args: list[Any] = []
        for a in call.args:
            stmts_a, val = self._any_operand(a)
            stmts.extend(stmts_a)
            args.append(val)
        kwargs: dict[str, Any] = {}
        for kw in call.keywords:
            if kw.arg is None:
                raise self.err("**kwargs unsupported", call)
            stmts_k, val = self._any_operand(kw.value)
            stmts.extend(stmts_k)
            kwargs[kw.arg] = val
        if fname == "dot" and dot_acc is not None:
            kwargs["acc"] = dot_acc
        op = TileOp(fname, target=target, args=tuple(args), kwargs=kwargs,
                    lineno=call.lineno)
        return stmts, op

    # -- operands: scalar Expr | tile var name | TensorRef | (lo, hi) | str ----

    def _any_operand(self, node: ast.expr) -> tuple[list[Stmt], Any]:
        """Compile a call argument to whatever category it belongs to."""
        # string literals (modes, dtypes)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [], node.value
        # (lo, hi) range pair or shape tuple
        if isinstance(node, ast.Tuple):
            elems = []
            for e in node.elts:
                elems.append(self.scalar(e))
            return [], tuple(elems)
        # tensor param, possibly rank-indexed
        ref = self._try_tensor_ref(node)
        if ref is not None:
            return [], ref
        if self._is_tile_expr(node):
            return self._tile_operand(node)
        return [], self.scalar(node)

    def _try_tensor_ref(self, node: ast.expr) -> TensorRef | None:
        if isinstance(node, ast.Name) and node.id in self.params \
                and node.id not in self.constexpr_params \
                and node.id != self.channel_param \
                and node.id not in self.tile_vars \
                and node.id not in self.scalar_vars:
            return TensorRef(node.id)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id in self.params:
            return TensorRef(node.value.id, rank=self.scalar(node.slice))
        return None

    def _tile_operand(self, node: ast.expr) -> tuple[list[Stmt], str]:
        """Compile a tile expression to statements + the holding var name."""
        if isinstance(node, ast.Name):
            if node.id not in self.tile_vars:
                raise self.err(f"{node.id!r} is not a tile", node)
            return [], node.id
        stmts, name = self.tile(node, target=self.fresh())
        return stmts, name

    # -- tile expressions ----------------------------------------------------------

    def _is_tile_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tile_vars
        if isinstance(node, ast.Call):
            fname = self._tl_name(node)
            if fname in tl_mod.TILE_FNS:
                return True
            if fname is not None and tl_mod.PRIMITIVES.get(fname):
                return True  # tile_pull_data
            return False
        if isinstance(node, ast.BinOp):
            return self._is_tile_expr(node.left) or self._is_tile_expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_tile_expr(node.operand)
        return False

    def tile(self, node: ast.expr, target: str,
             dot_acc: str | None = None) -> tuple[list[Stmt], str]:
        """Compile a tile expression into statements ending in ``target``."""
        if isinstance(node, ast.Name):
            if node.id not in self.tile_vars:
                raise self.err(f"{node.id!r} is not a tile", node)
            self.mark_tile(target, node)
            return [TileOp("copy", target=target, args=(node.id,),
                           lineno=node.lineno)], target
        if isinstance(node, ast.Call):
            fname = self._tl_name(node)
            if fname is None:
                raise self.err("only tl.* calls produce tiles", node)
            if fname in tl_mod.PRIMITIVES:
                if not tl_mod.PRIMITIVES[fname]:
                    raise self.err(f"tl.{fname} produces no value", node)
                stmts = self._primitive(node, fname, target=target)
                self.mark_tile(target, node)
                return stmts, target
            if fname not in tl_mod.TILE_FNS:
                raise self.err(f"tl.{fname} is not a tile function", node)
            stmts, op = self._tile_call(node, fname, target=target,
                                        dot_acc=dot_acc)
            self.mark_tile(target, node)
            return stmts + [op], target
        if isinstance(node, ast.BinOp):
            opcls = type(node.op)
            if opcls not in _TILE_BINOPS:
                raise self.err("unsupported tile operator", node)
            l_stmts, lhs = self._operand_any_side(node.left)
            r_stmts, r = self._operand_any_side(node.right)
            self.mark_tile(target, node)
            op = TileOp(_TILE_BINOPS[opcls], target=target, args=(lhs, r),
                        lineno=node.lineno)
            return l_stmts + r_stmts + [op], target
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            s_stmts, s = self._tile_operand(node.operand)
            self.mark_tile(target, node)
            return s_stmts + [TileOp("neg", target=target, args=(s,),
                                     lineno=node.lineno)], target
        raise self.err("unsupported tile expression", node)

    def _operand_any_side(self, node: ast.expr) -> tuple[list[Stmt], Any]:
        """A binary-op side: tile var name (str) or scalar Expr."""
        if self._is_tile_expr(node):
            return self._tile_operand(node)
        return [], self.scalar(node)

    # -- scalar expressions -----------------------------------------------------------

    def scalar(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, bool)):
                return Const(node.value)
            raise self.err(f"unsupported constant {node.value!r}", node)
        if isinstance(node, ast.Name):
            if node.id in self.tile_vars:
                raise self.err(f"tile {node.id!r} used in scalar context", node)
            return Name(node.id)
        if isinstance(node, ast.BinOp):
            opcls = type(node.op)
            if opcls not in _BINOPS:
                raise self.err("unsupported scalar operator", node)
            return BinOp(_BINOPS[opcls], self.scalar(node.left),
                         self.scalar(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return UnaryOp("-", self.scalar(node.operand))
            if isinstance(node.op, ast.Not):
                return UnaryOp("not", self.scalar(node.operand))
            raise self.err("unsupported unary operator", node)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise self.err("chained comparisons unsupported", node)
            opcls = type(node.ops[0])
            if opcls not in _CMPOPS:
                raise self.err("unsupported comparison", node)
            return BinOp(_CMPOPS[opcls], self.scalar(node.left),
                         self.scalar(node.comparators[0]))
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            expr = self.scalar(node.values[0])
            for v in node.values[1:]:
                expr = BinOp(op, expr, self.scalar(v))
            return expr
        if isinstance(node, ast.Call):
            fname = self._tl_name(node)
            if fname in ("cdiv", "minimum", "maximum"):
                if len(node.args) != 2:
                    raise self.err(f"tl.{fname} takes two arguments", node)
                opname = {"cdiv": "cdiv", "minimum": "min", "maximum": "max"}[fname]
                return BinOp(opname, self.scalar(node.args[0]),
                             self.scalar(node.args[1]))
            if fname == "block_id":
                return Name("$bid")
            if fname == "num_blocks":
                return Name("$nblocks")
            if fname is not None:
                raise self.err(f"unknown tl function tl.{fname}", node)
            raise self.err("unsupported call in scalar expression", node)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id == self.channel_param:
                if node.attr not in CHANNEL_FIELDS:
                    raise self.err(
                        f"unknown BlockChannel field {node.attr!r}", node)
                return ChannelField(node.attr)
            raise self.err("unsupported attribute access", node)
        raise self.err(f"unsupported scalar expression "
                       f"{type(node).__name__}", node)
