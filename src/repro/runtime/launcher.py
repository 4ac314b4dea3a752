"""Kernel launcher: compile once, run SPMD on the simulated node.

This module decides who holds which SMs.  A tile-IR launch spawns one
simulation process per grid block that has work, as the program's
activity function (:func:`repro.compiler.interp.active_blocks`) names them
for the launch and rank; a spawned block keeps its id and sees the whole
grid.  Each holds one SM for its lifetime, queueing FIFO on the device's
SM pool (persistent-block kernels use ``grid <= SMs``, like the paper's
Figure 4 kernels).  An idle block holds no SM; a launch with no working
block spawns its block 0 alone, so it still waits for a free SM.  A
native kernel (library ops, NCCL collectives, baselines, attention) runs
through :func:`native_kernel`, which holds every SM of its rank, or a
given count, for its whole body.  Launch overhead is charged on the
stream.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.compiler.interp import active_blocks, run_block
from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel
from repro.errors import RuntimeLaunchError
from repro.lang.block_channel import BlockChannel
from repro.lang.dsl import KernelDef
from repro.sim.engine import AllOf, Process, ProcessGen
from repro.sim.machine import Machine
from repro.sim.stream import Stream


def _split_args(program: CompiledProgram, args: dict[str, Any],
                rank: int) -> dict[str, Any]:
    """Per-rank view of launch arguments.

    Symmetric tensors stay as lists (kernels may index peers); BlockChannel
    lists are narrowed to the rank's instance.
    """
    bindings: dict[str, Any] = {}
    for name in program.tensor_params:
        if name not in args:
            raise RuntimeLaunchError(
                f"kernel {program.name!r}: missing argument {name!r}")
        bindings[name] = args[name]
    if program.ir.channel_param is not None:
        ch = args.get(program.ir.channel_param)
        if isinstance(ch, list):
            ch = ch[rank]
        if not isinstance(ch, BlockChannel):
            raise RuntimeLaunchError(
                f"kernel {program.name!r}: argument "
                f"{program.ir.channel_param!r} must be a BlockChannel")
        bindings[program.ir.channel_param] = ch
    return bindings


def kernel_process(program: CompiledProgram, machine: Machine, rank: int,
                   grid: int, bindings: dict[str, Any],
                   label: str | None = None) -> ProcessGen:
    """Generator running one rank's grid (usable inside stream enqueues)."""
    sms = machine.device(rank).sms
    # one SM each: every block of the launch yields the same request
    acquire, release = sms.acquire(), sms.release
    label = label or program.name

    def block(bid: int) -> ProcessGen:
        yield acquire
        try:
            yield from run_block(program, machine, rank, bid, grid,
                                 bindings, label=label)
        finally:
            release()
        return None

    # a launch with no working block still waits for a free SM
    spawn, name = machine.sim.spawn, f"{label}[r{rank}b"
    procs = [spawn(block(bid), f"{name}{bid}]")
             for bid in active_blocks(program, grid, bindings) or range(1)]
    yield AllOf(procs)
    return None


def native_kernel(machine: Machine, rank: int, label: str,
                  body: Callable[[int], ProcessGen], sms: int | None = None,
                  category: str = "compute") -> ProcessGen:
    """Run a native kernel's timing body while it holds SMs of ``rank``.

    The kernel holds every SM (``sms=None``) or ``sms`` of them, capped
    at the device's capacity; a count below 1 raises
    :class:`~repro.errors.SimulationError`.  ``body(held)`` is given the
    count it holds.  With tracing on, the held interval, from acquiring
    the SMs to the end of the body, is recorded under ``category``.
    """
    device = machine.device(rank)
    held = device.sms.capacity if sms is None \
        else min(sms, device.sms.capacity)
    yield device.sms.acquire(held)
    try:
        t0 = machine.now
        yield from body(held)
        if machine.config.trace:
            machine.record(rank, category, label, t0, machine.now)
    finally:
        device.sms.release(held)
    return None


def launch_native(machine: Machine, rank: int, label: str,
                  body: Callable[[int], ProcessGen], sms: int | None = None,
                  category: str = "compute") -> Process:
    """Enqueue :func:`native_kernel` on ``rank``'s default stream, behind
    the kernel launch overhead."""
    return machine.stream(rank).enqueue(
        native_kernel(machine, rank, label, body, sms, category),
        name=f"{label}[{rank}]", start_delay=machine.cost.launch_overhead())


def launch_kernel(machine: Machine, kdef: KernelDef, grid: int, rank: int,
                  args: dict[str, Any],
                  options: CompileOptions | None = None,
                  stream: Stream | None = None,
                  label: str | None = None) -> Process:
    """Launch one rank's kernel; returns the stream-enqueued process."""
    if grid < 1:
        raise RuntimeLaunchError(f"grid must be >= 1, got {grid}")
    ir = kdef.ir
    constexprs = {p: args[p] for p in ir.constexpr_params if p in args}
    program = compile_kernel(kdef, constexprs, options)
    bindings = _split_args(program, args, rank)
    stream = stream or machine.stream(rank)
    gen = kernel_process(program, machine, rank, grid, bindings, label=label)
    return stream.enqueue(
        gen,
        name=label or f"{kdef.name}[{rank}]",
        start_delay=machine.cost.launch_overhead(),
    )


def launch_spmd(machine: Machine, kdef: KernelDef, grid: int,
                args: dict[str, Any],
                options: CompileOptions | None = None,
                stream_name: str = "default",
                label: str | None = None) -> list[Process]:
    """Launch the same kernel on every rank (SPMD, Figure 7's runtime)."""
    return [
        launch_kernel(machine, kdef, grid, rank, args, options,
                      stream=machine.stream(rank, stream_name), label=label)
        for rank in range(machine.world_size)
    ]
