"""TileLink compiler backend.

Pipeline (paper §4, Figure 7)::

    KernelIR (frontend)
      -> analysis: mark aggregable loops              (passes.annotate_loops)
      -> pipelining: mark pipelined loops/prefetch    (passes.pipeline_loops)
      -> memory consistency: pin guarded loads        (passes.enforce_consistency)
      -> CompiledProgram                              (program.compile_kernel)
      -> the blocks with work, per launch and rank    (interp.active_blocks)
      -> Python source per mode, compiled on first run (interp.run_block):
         static tile shapes and dtypes folded, shape
         checks decided, costs computed once per launch
      -> per-block execution on the simulator         (interp.run_block)

Each kernel becomes one generated generator function per mode; its tile
ops and primitives are inline code.  Where the IR fixes a tile's shape and
dtype, shape-only code builds no tile and does no address arithmetic for
it, and a prologue computes once per launch and rank the byte counts,
tile prices and whole aggregable-loop probes that do not change from tile
to tile; no reservation, signal operation or read of ``sim.now`` moves.
Primitives resolve against the BlockChannel's tile-centric mapping when
they run: signal primitives become release-semantics atomic posts /
acquire-semantics spin waits on :class:`repro.memory.signals.SignalArray`,
data primitives become interconnect reservations with arrival-time data
application.
"""

from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel

__all__ = ["CompiledProgram", "CompileOptions", "compile_kernel"]
