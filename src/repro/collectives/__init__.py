"""Operator-centric collectives: the baselines' communication layer.

:mod:`repro.collectives.nccl` implements NCCL-like ring collectives as
simulated kernels (SM-driven, protocol-efficiency-limited);
:mod:`repro.collectives.copy_engine` implements DMA-engine data movement
with signal publication — the communication substrate TileLink's
DMA-mapped kernels use.
"""

from repro.collectives.nccl import NcclCollectives
from repro.collectives.copy_engine import dma_all_gather

__all__ = ["NcclCollectives", "dma_all_gather"]
