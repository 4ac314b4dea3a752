"""Abstract execution model for the static synchronization analyzer.

The analyzer never runs the simulator.  Instead each kernel launch (and
each host-side comm thread) becomes a :class:`Thread`: a straight-line
trace of :class:`Event` records — signal waits/posts and tile
reads/writes — obtained by abstractly interpreting the kernel IR at a
small concrete instantiation (world size, tile-grid shape).

Plans are recorded from the real launchers, never written by hand:
:class:`RecordingContext` is a :class:`~repro.runtime.context.DistContext`
whose heap hands out named tensor placeholders and :class:`AbstractBank`
signal arrays, so the unchanged ``DistContext.make_block_channels`` builds
the real :class:`~repro.lang.block_channel.BlockChannel` objects and all of
the channel's tile-to-channel/threshold metadata resolution is production
code.  Kernel launches (``ctx.launch_spmd``) are abstractly interpreted per
(rank, block) instead of compiled and simulated; host procs enqueued on
``ctx.stream(...)`` run to completion at once, their copies, waits and
posts appended to a host thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analyze.findings import Finding
from repro.compiler.program import CompileOptions
from repro.config import SimConfig
from repro.errors import RuntimeLaunchError
from repro.lang.dsl import KernelDef
from repro.lang.ir import KernelIR
from repro.memory.symmetric import SymmetricHeap
from repro.runtime.context import DistContext

#: lattice top for scalar abstract values
UNKNOWN = object()

#: (bank name, owning rank) — the analyzer's key for one signal array
BankKey = tuple[str, int]


class AbstractBank:
    """Stand-in for a ``SignalArray``: identity + size, no state.

    A :meth:`post_add` from a host proc is recorded as a notify event on
    that proc's thread.
    """

    def __init__(self, host: "_HostProc", name: str, rank: int, size: int):
        self.host = host
        self.name = name
        self.rank = rank
        self.size = size

    def __len__(self) -> int:
        return self.size

    @property
    def key(self) -> BankKey:
        return (self.name, self.rank)

    def post_add(self, index: int, amount: int, from_rank: int) -> None:
        self.host.record("notify", f"rank_notify cell {index} += {amount}",
                         bank=self.key, cell=index, amount=amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AbstractBank {self.name}@{self.rank} x{self.size}>"


@dataclass(frozen=True)
class Site:
    """Where an event came from: kernel (or host label) + source line."""

    kernel: str
    lineno: int | None
    detail: str = ""

    def render(self) -> str:
        loc = self.kernel
        if self.lineno is not None:
            loc += f":{self.lineno}"
        return f"{loc} ({self.detail})" if self.detail else loc


@dataclass
class Event:
    """One abstract action in a thread's trace.

    ``kind`` is one of ``wait`` / ``notify`` / ``read`` / ``write`` /
    ``accum``.  Signal events carry ``(bank, cell)`` plus an ``amount``
    (notify) or ``threshold`` (wait).  Access events carry the
    tensor's plan name, the instance rank, and half-open row/col ranges —
    ``None`` when the extent could not be resolved statically (such
    accesses are excluded from the race/coverage checks).
    ``guaranteed`` is False for events under a branch the analyzer could
    not decide.
    """

    kind: str
    site: Site
    guaranteed: bool = True
    bank: BankKey | None = None
    cell: int | None = None
    amount: int = 0
    threshold: int = 0
    tensor: str | None = None
    rank: int | None = None
    rows: tuple[int, int] | None = None
    cols: tuple[int, int] | None = None


@dataclass
class Thread:
    """One abstract execution: a kernel block on a rank, or a host proc."""

    key: str
    kernel: str
    rank: int
    group: str                      # launch id (stream ordering)
    events: list[Event] = field(default_factory=list)
    #: groups that must fully complete before this thread starts
    #: (same-stream launch ordering, transitively closed)
    after: frozenset[str] = frozenset()


@dataclass
class LaunchPlan:
    """A fully-instantiated abstract execution: threads + declared outputs."""

    name: str
    family: str
    world: int
    threads: list[Thread] = field(default_factory=list)
    #: plan tensor name -> per-rank shape; symmetric across ranks
    tensors: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: tensor names whose full per-rank extent must be covered by writes
    outputs: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class _PlanMachine:
    """The recording context's machine: ``world_size`` and ``config`` only,
    so a launcher that reaches past the context's seams (devices,
    interconnect, raw streams) fails loudly instead of dropping work from
    the plan."""

    def __init__(self, world: int):
        self.config = SimConfig(world_size=world, execute_numerics=False)
        self.world_size = world


class _HostProc:
    """The host proc a recording context is running, if any: host
    primitives and :meth:`AbstractBank.post_add` append events to it.

    Banks and the context share this slot rather than point back at the
    context, so a finished recording is freed without the cycle
    collector."""

    def __init__(self):
        self.thread: Thread | None = None

    def record(self, kind: str, detail: str, **fields: Any) -> None:
        if self.thread is None:
            raise RuntimeLaunchError(
                f"{detail} issued outside a host proc enqueued on "
                "ctx.stream()")
        self.thread.events.append(
            Event(kind, Site(self.thread.kernel, None, detail), **fields))


class _PlanHeap(SymmetricHeap):
    """Symmetric heap of data-less tensor placeholders and abstract banks."""

    def __init__(self, machine: "_PlanMachine", host: _HostProc):
        super().__init__(machine)
        self.host = host

    def alloc_signals(self, name: str, n: int) -> list[AbstractBank]:
        banks = [AbstractBank(self.host, name, rank, n)
                 for rank in range(self.machine.world_size)]
        self._signals[name] = banks
        return banks


class _PlanStream:
    """A stream whose enqueued host procs run to completion at once."""

    def __init__(self, ctx: "RecordingContext", rank: int, name: str):
        self.ctx = ctx
        self.rank = rank
        self.name = name

    def enqueue(self, gen, name: str | None = None,
                start_delay: float = 0.0) -> None:
        ctx = self.ctx
        label = name or f"{self.name}[{self.rank}]"
        group, after = ctx._enqueue(self.rank, self.name, label)
        thread = Thread(key=f"{label}@{self.rank}", kernel=label,
                        rank=self.rank, group=group, after=after)
        ctx.host.thread = thread
        try:
            for awaited in gen:
                raise RuntimeLaunchError(
                    f"host proc {label!r} awaited {awaited!r} outside the "
                    "recording context's rank_copy_data/rank_wait seams")
        finally:
            ctx.host.thread = None
        ctx.plan.threads.append(thread)


class RecordingContext(DistContext):
    """A :class:`DistContext` that records a :class:`LaunchPlan` instead
    of simulating.

    Run a family's launcher against it; ``plan`` then holds one thread
    per launched (rank, block) and per host proc, and ``findings`` what
    abstract interpretation reported.  ``ir_overrides`` maps a kernel name
    to a replacement IR interpreted in place of the kernel's own (how the
    seeded-mutant tests plant bugs in shipped launches); ``launched`` maps
    every launched kernel name to the IR that was interpreted.
    """

    def __init__(self, name: str, family: str, world: int,
                 ir_overrides: dict[str, KernelIR] | None = None):
        super().__init__(_PlanMachine(world))
        self.host = _HostProc()
        self.heap = _PlanHeap(self.machine, self.host)
        self.plan = LaunchPlan(name=name, family=family, world=world)
        self.findings: list[Finding] = []
        self.ir_overrides = dict(ir_overrides or {})
        self.launched: dict[str, KernelIR] = {}
        self._groups = 0
        #: (rank, stream) -> group label of the last enqueued work
        self._tails: dict[tuple[int, str], str] = {}
        #: group -> transitively-closed set of predecessor groups
        self._after: dict[str, frozenset[str]] = {}

    # -- tensors --------------------------------------------------------------

    def alloc(self, name: str, shape: tuple[int, ...], dtype: str,
              fill: float | None = 0.0) -> list:
        self.plan.tensors[name] = tuple(shape)
        return super().alloc(name, shape, dtype, fill)

    def bind(self, name: str, per_rank: list) -> list:
        self.plan.tensors[name] = tuple(per_rank[0].shape)
        return super().bind(name, per_rank)

    # -- streams and launches -----------------------------------------------

    def _enqueue(self, rank: int, stream: str,
                 label: str) -> tuple[str, frozenset[str]]:
        """A new group on (rank, stream) and the groups it runs after."""
        self._groups += 1
        group = f"{label}#{self._groups}"
        tail = self._tails.get((rank, stream))
        after = frozenset() if tail is None else self._after[tail] | {tail}
        self._after[group] = after
        self._tails[(rank, stream)] = group
        return group, after

    def stream(self, rank: int, name: str = "default") -> _PlanStream:
        return _PlanStream(self, rank, name)

    def launch_spmd(self, kdef: KernelDef, grid: int, args: dict[str, Any],
                    options: CompileOptions | None = None,
                    stream_name: str = "default",
                    label: str | None = None) -> list:
        """Interpret every (rank, block) of the launch into a thread."""
        from repro.analyze.absint import interpret_launch

        kir = kdef.ir
        ir = self.ir_overrides.get(kdef.name, kir)
        self.launched[kdef.name] = ir
        constexprs = {p: args[p] for p in kir.constexpr_params if p in args}
        scalars = {*kir.constexpr_params, kir.channel_param}
        tensors = {p: args[p][0].name for p in kir.params
                   if p not in scalars}
        meta = kdef.meta
        for p in (*meta.get("inputs", ()), *meta.get("outputs", ())):
            if p in tensors and tensors[p] not in self.plan.outputs:
                self.plan.outputs.append(tensors[p])
        channels = args.get(kir.channel_param) or [None] * self.world_size
        label = label or kdef.name
        for rank in range(self.world_size):
            group, after = self._enqueue(rank, stream_name,
                                         f"{label}[r{rank}]")
            for bid in range(grid):
                events, findings = interpret_launch(
                    ir, constexprs, channels[rank], tensors,
                    self.plan.tensors, rank=rank, bid=bid, grid=grid,
                    world=self.world_size)
                self.findings.extend(findings)
                self.plan.threads.append(Thread(
                    key=f"{kdef.name}[r{rank}b{bid}]#{group}",
                    kernel=kdef.name, rank=rank, group=group,
                    events=events, after=after))
        return []

    # -- host-side primitives ---------------------------------------------------

    def rank_copy_data(self, name: str, src_rank: int, dst_rank: int,
                       src_ranges, dst_ranges, src_name: str | None = None):
        src = src_name or name
        self.host.record("read", f"rank_copy_data read {src}@{src_rank}",
                         tensor=src, rank=src_rank, rows=src_ranges[0],
                         cols=src_ranges[1])
        self.host.record("write", f"rank_copy_data write {name}@{dst_rank}",
                         tensor=name, rank=dst_rank, rows=dst_ranges[0],
                         cols=dst_ranges[1])
        return
        yield  # pragma: no cover - generator marker

    def rank_wait(self, bank: AbstractBank, index: int, threshold: int,
                  host_synced: bool = False):
        self.host.record("wait", f"rank_wait cell {index} >= {threshold}",
                         bank=bank.key, cell=index, threshold=threshold)
        return
        yield  # pragma: no cover - generator marker
