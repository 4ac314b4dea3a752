"""Structured tile IR.

The frontend compiles a kernel's Python AST into this IR; compiler passes
annotate it; the backend generates Python code for it once per mode and
runs that per block on the simulated device.

Two value categories exist at run time:

* **scalars** — Python ints/floats/bools produced by :class:`Expr` trees
  (block ids, loop counters, tile-id arithmetic, constexpr parameters);
* **tiles** — numpy arrays (numeric mode) or shape-only stubs (timing
  mode) produced by :class:`TileOp` statements.

Statements are structured (no CFG): ``For`` and ``If`` nest blocks of
statements.  Passes attach scheduling annotations directly to the nodes
(``For.aggregable``, ``For.pipelined``, ``TileOp.prefetchable``,
``TileOp.guards``).

Scalar operators have one meaning, :data:`BINARY_OPS` and
:data:`UNARY_OPS`, shared by the backend and the static analyzer's
abstract evaluator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base scalar expression."""


@dataclass(frozen=True)
class Const(Expr):
    value: int | float | bool | str

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    """A scalar local / parameter / constexpr reference."""

    id: str

    def __repr__(self) -> str:
        return self.id


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # a BINARY_OPS key, or the short-circuiting "and" / "or"
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


#: BinOp.op -> its value on two evaluated operands.  ``and``/``or`` are
#: absent: evaluators short-circuit them before reaching this table.
BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "/": operator.truediv,
    "%": operator.mod,
    "**": operator.pow,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "min": min,
    "max": max,
    "cdiv": lambda a, b: -(-a // b),
}


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # a UNARY_OPS key
    operand: Expr


#: UnaryOp.op -> its value on the evaluated operand
UNARY_OPS: dict[str, Callable[[Any], Any]] = {
    "-": operator.neg,
    "not": operator.not_,
}


@dataclass(frozen=True)
class ChannelField(Expr):
    """Access to a BlockChannel metadata field (e.g. channel.rank)."""

    field_name: str

    def __repr__(self) -> str:
        return f"channel.{self.field_name}"


# ---------------------------------------------------------------------------
# tensor references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorRef:
    """A tensor parameter, optionally indexed by rank (``buffers[to_rank]``).

    ``rank`` is None for "the local instance of this (symmetric) tensor".
    """

    name: str
    rank: Expr | None = None

    def __repr__(self) -> str:
        return self.name if self.rank is None else f"{self.name}[{self.rank!r}]"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base statement."""

    def children(self) -> list[list["Stmt"]]:
        """Nested statement blocks (for tree walks)."""
        return []


@dataclass
class AssignScalar(Stmt):
    target: str
    value: Expr
    lineno: int | None = None


@dataclass
class TileOp(Stmt):
    """A tile-producing/consuming operation assigned to a local name.

    ``op`` selects the semantics (see the code ``repro.compiler.interp``
    generates for it); ``args`` holds Exprs, TensorRefs, strings and nested
    (lo, hi) Expr pairs, per-op.
    ``target`` is None for pure-effect ops (store).
    """

    op: str
    target: str | None
    args: tuple[Any, ...]
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: filled by passes: wait statements guarding this op (consistency)
    guards: list["Primitive"] = field(default_factory=list)
    #: set by the pipeliner: this load may be issued one iteration early
    prefetchable: bool = False
    lineno: int | None = None


@dataclass
class Primitive(Stmt):
    """A TileLink tile-centric primitive (Table 3)."""

    name: str  # producer_tile_notify | consumer_tile_wait | peer_tile_notify
    #        | peer_tile_wait | tile_push_data | tile_pull_data
    args: tuple[Any, ...]
    kwargs: dict[str, Any] = field(default_factory=dict)
    target: str | None = None  # tile_pull_data produces a value
    lineno: int | None = None

    @property
    def is_wait(self) -> bool:
        return self.name in ("consumer_tile_wait", "peer_tile_wait")


@dataclass
class For(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Expr
    body: list[Stmt]
    #: no sync/comm inside: backend may cost it analytically (trips x body)
    aggregable: bool = False
    #: software pipelining applies (multi-stage overlap of loads & compute)
    pipelined: bool = False
    lineno: int | None = None

    def children(self) -> list[list[Stmt]]:
        return [self.body]


@dataclass
class If(Stmt):
    cond: Expr
    then: list[Stmt]
    orelse: list[Stmt] = field(default_factory=list)
    lineno: int | None = None

    def children(self) -> list[list[Stmt]]:
        return [self.then, self.orelse]


@dataclass
class Return(Stmt):
    lineno: int | None = None


# ---------------------------------------------------------------------------
# kernel container
# ---------------------------------------------------------------------------


@dataclass
class KernelIR:
    name: str
    #: positional parameter names, in order
    params: list[str]
    #: names of parameters declared tl.constexpr
    constexpr_params: list[str]
    #: name of the BlockChannel parameter (None if the kernel has none)
    channel_param: str | None
    body: list[Stmt]
    source: str = ""

    def walk_stmts(self) -> Iterator[Stmt]:
        """All statements, depth first."""
        return walk_block(self.body)


def copy_block(body: list[Stmt]) -> list[Stmt]:
    """A copy of ``body``'s statement tree, for passes to annotate; the
    frozen expressions and tensor references stay shared."""
    out = []
    for s in body:
        c = object.__new__(type(s))
        c.__dict__.update(s.__dict__)
        if isinstance(s, For):
            c.body = copy_block(s.body)
        elif isinstance(s, If):
            c.then, c.orelse = copy_block(s.then), copy_block(s.orelse)
        elif isinstance(s, TileOp):
            c.guards = list(s.guards)
        out.append(c)
    return out


def walk_block(body: list[Stmt]) -> Iterator[Stmt]:
    """All statements under a block, depth first."""
    stack: list[Stmt] = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        for block in node.children():
            stack.extend(reversed(block))


def scalar_reads(s: Stmt) -> set[str]:
    """The scalar names ``s``'s own operands read (not its nested
    blocks')."""
    if isinstance(s, AssignScalar):
        return _names(s.value)
    if isinstance(s, (TileOp, Primitive)):
        return _names((*s.args, *s.kwargs.values()))
    if isinstance(s, If):
        return _names(s.cond)
    if isinstance(s, For):
        return _names((s.start, s.stop, s.step))
    return set()


def _names(x: Any) -> set[str]:
    if isinstance(x, Name):
        return {x.id}
    if isinstance(x, BinOp):
        return _names(x.left) | _names(x.right)
    if isinstance(x, UnaryOp):
        return _names(x.operand)
    if isinstance(x, TensorRef):
        return _names(x.rank)
    if isinstance(x, tuple):
        return set().union(*map(_names, x))
    return set()


def scalar_target(s: Stmt) -> str | None:
    """The scalar ``s`` assigns: an assignment's or ``load_scalar``'s
    target, or a loop's variable."""
    if isinstance(s, AssignScalar) or isinstance(s, TileOp) \
            and s.op == "load_scalar":
        return s.target
    return s.var if isinstance(s, For) else None


def inherit_linenos(body: list[Stmt], default: int | None = None) -> None:
    """Fill missing ``lineno`` fields from the nearest preceding statement.

    Synthesized nodes (tuple-unpacking assignments, desugared augmented
    assignments) otherwise report ``None`` and analyzer findings lose their
    source anchor.
    """
    last = default
    for s in body:
        if getattr(s, "lineno", None) is None and hasattr(s, "lineno"):
            s.lineno = last
        else:
            last = getattr(s, "lineno", last)
        for block in s.children():
            inherit_linenos(block, last)
