"""Simulated GPU device: SM pool, copy engines, HBM pipe.

A :class:`Device` owns the contended resources of one rank.  Kernels
scheduled by the runtime acquire SMs from :attr:`Device.sms` (persistent
blocks hold one SM for their lifetime, mirroring how FLUX/TileLink kernels
partition SMs between compute and communication — Figure 4, line 1 of the
paper).  DMA transfers occupy a copy-engine slot.  Memory-bound work charges
the shared :attr:`Device.hbm` pipe so concurrent kernels contend for DRAM
bandwidth realistically.
"""

from __future__ import annotations

from repro.config import HardwareSpec
from repro.sim.engine import Simulator
from repro.sim.resources import Pipe, Resource


class Device:
    """One simulated GPU (rank) of the node."""

    def __init__(self, sim: Simulator, rank: int, spec: HardwareSpec):
        self.sim = sim
        self.rank = rank
        self.spec = spec
        #: Streaming multiprocessors; persistent blocks hold one slot each.
        self.sms = Resource(sim, spec.n_sms, name=f"sms[{rank}]")
        #: DMA copy-engine slots.
        self.copy_engines = Resource(sim, spec.n_copy_engines,
                                     name=f"copy_engines[{rank}]")
        #: Shared HBM bandwidth pipe (effective bandwidth after efficiency).
        self.hbm = Pipe(sim, spec.hbm_bandwidth * spec.hbm_efficiency,
                        latency=0.0, name=f"hbm[{rank}]")
        #: ``reserve_hbm(nbytes)``: reserve HBM traffic and return the
        #: arrival time (non-blocking), in one call
        self.reserve_hbm = self.hbm.arrival

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device rank={self.rank} sms={self.sms.available}/{self.spec.n_sms}>"
