"""FLUX-style fusion baseline (Chang et al.), on the same substrate.

FLUX hand-writes fused CUDA kernels with a *tightly coupled* design space
(§3.1): the communication tile equals the GEMM tile and both live on SMs
(plus DMA for AG).  Two consequences the paper measures:

* **AG+GEMM** — FLUX's hand-tuned CUTLASS main loop edges out compiled
  code by a few percent (the paper's TileLink reaches 94.5% of FLUX);
  modelled as a ``HAND_TUNING`` factor on the tile time.
* **GEMM+RS** — the coupled tile choice and SM-only communication are
  sub-optimal; TileLink's decoupled hybrid mapping beats it by ~1.28x.
  Modelled structurally: FLUX GEMM+RS *is* the fused ring kernel with
  ``comm tile == compute tile`` (no DMA), so the granularity and resource
  penalties emerge from the simulator rather than a fudge factor.

FLUX does not support MoE (Figure 9 has no FLUX bars) — no MoE entry
points here.  The "FLUX" table entries (:mod:`repro.registry`) take
the GEMM tile from the caller's config.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.collectives.copy_engine import dma_all_gather
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from repro.kernels.mlp import mlp_layer
from repro.registry import gemm_entry, register_impl
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout

#: hand-written CUDA main loop vs compiled code: a few percent faster
HAND_TUNING = 0.95


def ag_gemm_flux(ctx: DistContext, m: int, n: int, k: int,
                 x_name: str, w_name: str, out_name: str,
                 block_m: int = 128, block_n: int = 128,
                 tag: str = "flux.ag") -> list[Process]:
    """DMA AllGather + segment-gated hand-tuned GEMM consumer."""
    machine = ctx.machine
    world = ctx.world_size
    cost = machine.cost
    m_per = m // world
    gathered = f"{tag}.gathered"
    ctx.alloc(gathered, (m, k), "float16", fill=None)
    banks = ctx.heap.alloc_signals(f"{tag}.seg", world)
    dma_all_gather(ctx, x_name, gathered, banks)

    def consumer(rank: int, held: int) -> ProcessGen:
        device = machine.device(rank)
        seg_tiles = math.ceil(m_per / block_m) * math.ceil(n / block_n)
        tile = cost.gemm_tile_time(block_m, block_n, k)
        seg_time = math.ceil(seg_tiles / held) * tile.total * HAND_TUNING
        order = [rank] + [(rank + 1 + s) % world for s in range(world - 1)]
        for seg in order:
            yield banks[rank].wait_geq(seg, 1)
            arrival = device.reserve_hbm(seg_tiles * tile.epilogue_bytes)
            yield Timeout(max(seg_time, arrival - machine.now))
        if machine.config.execute_numerics:
            gt = ctx.heap.tensor(gathered, rank).numpy()
            w = ctx.heap.tensor(w_name, rank).numpy()
            out = (gt.astype(np.float32) @ w.astype(np.float32))
            ctx.heap.tensor(out_name, rank).write_tile(((0, m), (0, n)), out)
        return None

    return [launch_native(machine, rank, tag, partial(consumer, rank))
            for rank in range(world)]


def gemm_rs_flux(ctx: DistContext, m: int, n: int, k: int,
                 x_name: str, w_name: str, out_name: str,
                 block_m: int = 128, block_n: int = 128,
                 tag: str = "flux.rs") -> list[Process]:
    """Coupled-tile fused GEMM+RS: the ring kernel with comm == compute
    tiles, SM-mapped communication (no DMA) on the config's default
    ``comm_blocks``."""
    cfg = GemmRsConfig(
        m=m, n=n, k=k, block_m=block_m, block_n=block_n,
        block_mr=block_m, block_nr=block_n,   # the coupling
        mode="ring")
    return gemm_rs_overlapped(ctx, cfg, x_name, w_name, out_name, tag=tag)


_ag_gemm = gemm_entry(ag_gemm_flux, "block_m", "block_n")
_gemm_rs = gemm_entry(gemm_rs_flux, "block_m", "block_n")
register_impl("ag_gemm", "FLUX", _ag_gemm)
register_impl("gemm_rs", "FLUX", _gemm_rs)
register_impl("mlp", "FLUX", partial(
    mlp_layer, ag_gemm=_ag_gemm, gemm_rs=_gemm_rs, tag="flux.mlp"))
