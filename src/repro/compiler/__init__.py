"""TileLink compiler backend.

Pipeline (paper §4, Figure 7)::

    KernelIR (frontend)
      -> analysis: mark aggregable loops              (passes.annotate_loops)
      -> pipelining: mark pipelined loops/prefetch    (passes.pipeline_loops)
      -> memory consistency: pin guarded loads        (passes.enforce_consistency)
      -> lowering into closures, once per program     (interp.lower)
      -> CompiledProgram                              (program.compile_kernel)
      -> per-block execution on the simulator         (interp.run_block)

Each tile op and primitive lowers once, at compile time, to a closure;
primitives resolve against the BlockChannel's tile-centric mapping when
they run: signal primitives become release-semantics atomic posts /
acquire-semantics spin waits on :class:`repro.memory.signals.SignalArray`,
data primitives become interconnect reservations with arrival-time data
application.
"""

from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel

__all__ = ["CompiledProgram", "CompileOptions", "compile_kernel"]
