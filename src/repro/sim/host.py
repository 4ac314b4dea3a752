"""Host-side orchestration: kernel launches, stream syncs, DMA triggers.

One :class:`Host` models the CPU thread driving a rank.  The orchestration
code *is* a simulation process; host actions are ``yield from``-style
sub-routines so host serialization falls out naturally — a host that
launches 16 chunked kernels pays 16 launch overheads back-to-back, which is
the decomposition-baseline cost the paper measures (§2.4, Table 2).
"""

from __future__ import annotations

from repro.sim.costmodel import CostModel
from repro.sim.engine import Join, Process, ProcessGen, Simulator, Timeout
from repro.sim.stream import Stream
from repro.sim.trace import Trace


class Host:
    """CPU-side driver for one rank."""

    def __init__(self, sim: Simulator, rank: int, cost: CostModel,
                 trace: Trace | None = None):
        self.sim = sim
        self.rank = rank
        self.cost = cost
        self.trace = trace

    def _record(self, label: str, start: float, end: float) -> None:
        if self.trace is not None:
            self.trace.record(self.rank, "host", label, start, end)

    def launch(self, stream: Stream, gen: ProcessGen,
               name: str = "kernel") -> ProcessGen:
        """Launch a kernel onto a stream; costs host launch overhead.

        Usage (inside an orchestration process)::

            proc = yield from host.launch(stream, kernel_gen(), "gemm")

        Returns the enqueued :class:`Process` so the caller can later join
        or synchronize on it.
        """
        start = self.sim.now
        yield Timeout(self.cost.launch_overhead())
        self._record(f"launch:{name}", start, self.sim.now)
        proc = stream.enqueue(gen, name=name)
        return proc

    def sync(self, target: Stream | Process) -> ProcessGen:
        """Block the host until a stream drains / a process completes.

        Costs the host-sync overhead on top of the wait itself — this is the
        "host intervention" penalty of operator decomposition.
        """
        start = self.sim.now
        proc = target.tail if isinstance(target, Stream) else target
        if proc is not None and not proc.done:
            yield Join(proc)
        yield Timeout(self.cost.host_sync_overhead())
        self._record("sync", start, self.sim.now)
        return None
