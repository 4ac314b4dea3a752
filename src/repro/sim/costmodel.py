"""Calibrated cost model for the simulated H800-class device.

Every timed instruction the compiler emits asks this model for a duration.
The model is intentionally simple — a handful of roofline-style formulas —
because the paper's phenomena (overlap, wave quantization, host overhead,
memory-bound epilogues, link contention) come from *scheduling*, which the
discrete-event simulator handles; the cost model only has to price one tile
of work at a time.

Conventions: sizes in elements, ``dtype_bytes`` in bytes/element, results in
seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import HardwareSpec


@dataclass(frozen=True)
class GemmTileCost:
    """Breakdown of a single output-tile cost (for tests/ablations)."""

    compute: float
    prologue: float
    epilogue_bytes: float

    @property
    def total(self) -> float:
        return self.compute + self.prologue


class CostModel:
    """Prices tile-granular work items on one device of ``spec``."""

    #: Fixed per-tile pipeline fill/drain overhead of an MMA main loop.
    MMA_PROLOGUE = 1.8e-6
    #: Fraction of raw operand bytes that miss L2 and reach HBM for GEMM.
    GEMM_DRAM_REUSE_DISCOUNT = 0.22
    #: Minimum tensor-core utilisation for degenerate (tiny) tiles.
    MIN_TILE_EFFICIENCY = 0.08

    def __init__(self, spec: HardwareSpec):
        self.spec = spec
        #: memoized tile prices: kernels price a few shapes millions of times
        self._mma: dict[tuple[int, int, int], float] = {}
        self._vector: dict[tuple[int, float, float], float] = {}

    # -- basic rates ---------------------------------------------------------

    @property
    def per_sm_tensor_flops(self) -> float:
        """Sustained tensor-core FLOP/s of one SM."""
        return self.spec.tensor_flops * self.spec.tensor_efficiency / self.spec.n_sms

    @property
    def per_sm_vector_flops(self) -> float:
        return self.spec.vector_flops / self.spec.n_sms

    @property
    def hbm_effective_bandwidth(self) -> float:
        return self.spec.hbm_bandwidth * self.spec.hbm_efficiency

    # -- GEMM ------------------------------------------------------------------

    def tile_efficiency(self, bm: int, bn: int, bk: int) -> float:
        """Tensor-core utilisation of a (bm, bn, bk) MMA tile on one SM.

        Full efficiency needs a 128x128 (or larger) tile with bk >= 32;
        narrow or shallow tiles underfeed the tensor cores.  This is the
        mechanism behind the paper's "resource quantization inefficiency"
        of decomposed/small GEMMs.
        """
        narrow = min(1.0, (min(bm, bn) / 128.0) ** 0.5)
        shallow = min(1.0, (bk / 32.0) ** 0.5)
        area = min(1.0, (bm * bn) / (128.0 * 128.0)) ** 0.25
        return max(self.MIN_TILE_EFFICIENCY, narrow * shallow * area)

    def mma_time(self, m: int, n: int, k: int) -> float:
        """One SM's tensor-core time for an (m x k) @ (k x n) tile product."""
        t = self._mma.get((m, n, k))
        if t is None:
            t = self._mma[m, n, k] = 2.0 * m * n * k / (
                self.per_sm_tensor_flops * self.tile_efficiency(m, n, k))
        return t

    def gemm_tile_time(self, bm: int, bn: int, k: int, bk: int = 64,
                       dtype_bytes: int = 2) -> GemmTileCost:
        """Time for one SM to produce one (bm x bn) output tile over depth k.

        Returns the compute duration plus the number of bytes the epilogue
        store (and the L2-missing fraction of operand loads) will push
        through the device HBM pipe — the caller charges those to the pipe
        so memory-bound kernels contend realistically.
        """
        if bm <= 0 or bn <= 0 or k <= 0 or bk <= 0:
            raise ValueError("gemm tile dims must be positive")
        flops = 2.0 * bm * bn * k
        eff = self.tile_efficiency(bm, bn, min(bk, k))
        compute = flops / (self.per_sm_tensor_flops * eff)
        # operand DRAM traffic after L2 reuse + full epilogue store
        operand_bytes = (bm + bn) * k * dtype_bytes * self.GEMM_DRAM_REUSE_DISCOUNT
        store_bytes = bm * bn * dtype_bytes
        return GemmTileCost(
            compute=compute,
            prologue=self.MMA_PROLOGUE,
            epilogue_bytes=operand_bytes + store_bytes,
        )

    def gemm_time_monolithic(self, m: int, n: int, k: int, dtype_bytes: int = 2,
                             n_sms: int | None = None,
                             bm: int = 128, bn: int = 128,
                             bk: int = 64) -> float:
        """Analytic makespan of a dense GEMM using ``n_sms`` SMs.

        Used by closed-form baselines (cuBLAS-style) and as the tuner
        pruner's compute floor; the fused kernels get the same number from
        the DES by actually scheduling tiles.
        """
        sms = n_sms if n_sms is not None else self.spec.n_sms
        if sms <= 0:
            raise ValueError("need at least one SM")
        tiles_m = math.ceil(m / bm)
        tiles_n = math.ceil(n / bn)
        n_tiles = tiles_m * tiles_n
        waves = math.ceil(n_tiles / sms)
        cost = self.gemm_tile_time(bm, bn, k, bk=bk, dtype_bytes=dtype_bytes)
        hbm_floor = (n_tiles * cost.epilogue_bytes) / self.hbm_effective_bandwidth
        return max(waves * cost.total, hbm_floor)

    # -- memory-bound / vector kernels -----------------------------------------

    def memory_tile_time(self, nbytes: float, n_sms_active: int | None = None) -> float:
        """Streaming time for ``nbytes`` given a fair HBM share.

        Device-level contention is modelled by the HBM :class:`Pipe`; this
        per-tile figure is the *issue* cost on the SM side, which matters
        when few SMs try to saturate the memory system.
        """
        sms = n_sms_active if n_sms_active is not None else self.spec.n_sms
        per_sm_bw = self.hbm_effective_bandwidth / self.spec.n_sms
        # One SM can't exceed a small multiple of its fair share.
        per_sm_cap = min(4.0 * per_sm_bw, self.hbm_effective_bandwidth / max(1, sms))
        return nbytes / max(per_sm_bw, per_sm_cap)

    def vector_tile_time(self, n_elements: int, flops_per_element: float,
                         bytes_per_element: float) -> float:
        """Elementwise/reduction tile cost on one SM (softmax, SiLU, topk)."""
        key = (n_elements, flops_per_element, bytes_per_element)
        t = self._vector.get(key)
        if t is None:
            compute = n_elements * flops_per_element / self.per_sm_vector_flops
            memory = self.memory_tile_time(n_elements * bytes_per_element)
            t = self._vector[key] = max(compute, memory)
        return t

    # -- attention --------------------------------------------------------------

    def flash_step_time(self, bq: int, bkv: int, head_dim: int,
                        dtype_bytes: int = 2) -> float:
        """One flash-attention inner step (q-tile x kv-tile) on one SM.

        Two MMAs (QK^T and PV) plus the online-softmax vector work.
        """
        mma_flops = 4.0 * bq * bkv * head_dim
        eff = self.tile_efficiency(bq, bkv, head_dim)
        mma = mma_flops / (self.per_sm_tensor_flops * eff)
        softmax = self.vector_tile_time(bq * bkv, flops_per_element=6.0,
                                        bytes_per_element=0.0)
        kv_load = self.memory_tile_time(2 * bkv * head_dim * dtype_bytes)
        return max(mma + softmax, kv_load)

    def flash_segment_time(self, heads: int, sq: int, skv: int, head_dim: int,
                           n_sms: int, frac: float = 1.0, bq: int = 128,
                           bkv: int = 128) -> float:
        """Makespan of flash attention over one KV segment on ``n_sms`` SMs.

        ``frac`` scales the inner-step count (0.5 for the triangular
        diagonal segment under causal masking).  The flash op, both
        attention kernels and both attention pruner bounds price a
        segment here.
        """
        blocks = heads * math.ceil(sq / bq)
        waves = math.ceil(blocks / max(1, n_sms))
        steps = max(1, math.ceil(math.ceil(skv / bkv) * frac))
        step_t = self.flash_step_time(bq, bkv, head_dim)
        return waves * (self.MMA_PROLOGUE + steps * step_t)

    # -- synchronization --------------------------------------------------------

    def atomic_latency(self, remote: bool) -> float:
        return (self.spec.remote_atomic_latency if remote
                else self.spec.local_atomic_latency)

    def spin_wait_quantum(self) -> float:
        # a float even from an int-valued spec: satisfied waits yield it bare
        return float(self.spec.spin_poll_interval)

    # -- host ---------------------------------------------------------------------

    def launch_overhead(self) -> float:
        return self.spec.kernel_launch_overhead

    def host_sync_overhead(self) -> float:
        return self.spec.host_sync_overhead
