"""TileLink compiler backend.

Pipeline (paper §4, Figure 7)::

    KernelIR (frontend)
      -> analysis: mark aggregable loops              (passes.annotate_loops)
      -> pipelining: mark pipelined loops/prefetch    (passes.pipeline_loops)
      -> memory consistency: pin guarded loads        (passes.enforce_consistency)
      -> CompiledProgram                              (program.compile_kernel)
      -> Python source per mode, compiled on first run (interp.run_block)
      -> per-block execution on the simulator         (interp.run_block)

Each kernel becomes one generated generator function per mode; its tile
ops and primitives are inline code.  Primitives resolve against the
BlockChannel's tile-centric mapping when they run: signal primitives become
release-semantics atomic posts / acquire-semantics spin waits on
:class:`repro.memory.signals.SignalArray`, data primitives become
interconnect reservations with arrival-time data application.
"""

from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel

__all__ = ["CompiledProgram", "CompileOptions", "compile_kernel"]
