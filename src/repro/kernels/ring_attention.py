"""RingAttention baseline (Liu et al.) for Figure 10.

Blockwise attention with KV chunks rotating around the ring: at each step
every rank computes flash attention against its current chunk while the
chunk simultaneously travels to the next rank.  The known weaknesses the
paper's comparison exposes:

* **lockstep**: every step ends with a ring-wide wait for the slowest
  rank, so causal-masking load imbalance (later ranks attend to more
  keys) stalls the whole ring each step;
* **blocking hops**: a step's compute cannot start before the previous
  hop delivered, so link latency and protocol overhead serialize.

Numerics use the same online-softmax accumulation as the TileLink kernel.
"""

from __future__ import annotations

from functools import partial

from repro.config import H800, HardwareSpec
from repro.kernels.attention import (
    AgAttentionConfig,
    _OnlineSoftmax,
    attention_tune_task,
)
from repro.ops.attention import heads_to_seq, seq_to_heads
from repro.registry import register_family
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout
from repro.tuner.costprune import ring_attention_lower_bound
from repro.tuner.search import TuneTask

#: per-step host cost of the torch.distributed SendRecv pair
HOP_DISPATCH_OVERHEAD = 30e-6

def ring_attention_tune_task(heads: int, head_dim: int, seq_len: int, *,
                             causal: bool = True, world: int = 8,
                             spec: HardwareSpec = H800) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning RingAttention.

    The ring shares the AG kernel's flash-tile axes — the searched
    subspace is the same q/kv tiling; only the builder (and its lockstep
    cost structure) differs.  Figure 10's RingAttn column runs the ring's
    default tiling: the ring registers no ``retune``, so no paper-table
    sweep or warm cache tunes it.
    """
    return attention_tune_task(
        "ring_attention", ring_attention,
        lambda c: ring_attention_lower_bound(
            c, heads=heads, head_dim=head_dim, seq_len=seq_len, world=world,
            spec=spec),
        heads, head_dim, seq_len, causal=causal, world=world)


def ring_attention(
    ctx: DistContext,
    cfg: AgAttentionConfig,
    q_name: str,
    k_shards_name: str,
    v_shards_name: str,
    out_name: str,
    tag: str = "ring_attn",
) -> list[Process]:
    """Launch ring attention on every rank (2-d sequence layouts)."""
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    s_per = cfg.seq_len // world
    width = cfg.width
    kv_bytes = 2.0 * s_per * width * 2  # K and V fp16 chunks

    # step-completion signals: cell s on rank r == "rank r finished hop s"
    hop_done = ctx.heap.alloc_signals(f"{tag}.hop", world)

    def rank_proc(rank: int, held: int) -> ProcessGen:
        device = machine.device(rank)
        q_t = ctx.heap.tensor(q_name, rank)
        state = None
        if machine.config.execute_numerics:
            state = _OnlineSoftmax(
                seq_to_heads(q_t.numpy(), cfg.heads, cfg.head_dim),
                cfg.causal, rank * s_per)
        nxt = (rank + 1) % world
        for step in range(world):
            seg = (rank - step) % world
            # every chunk is processed with the causal mask applied
            # *inside* the kernel — plain RingAttention neither skips
            # masked chunks nor rebalances the causal triangle, so each
            # lockstep slot costs a full chunk of compute
            duration = machine.cost.flash_segment_time(
                cfg.heads, s_per, s_per, cfg.head_dim, held,
                1.0, cfg.block_q, cfg.block_kv)
            arrival = device.reserve_hbm(kv_bytes)
            yield Timeout(max(duration, arrival - machine.now))
            if state is not None and (not cfg.causal or seg <= rank):
                k_seg = ctx.heap.tensor(k_shards_name, seg).numpy()
                v_seg = ctx.heap.tensor(v_shards_name, seg).numpy()
                state.update(
                    seq_to_heads(k_seg, cfg.heads, cfg.head_dim),
                    seq_to_heads(v_seg, cfg.heads, cfg.head_dim),
                    kv_offset=seg * s_per)
            if step < world - 1:
                # blocking SendRecv after the step's compute: host
                # dispatch, the hop itself, then wait for the
                # neighbour's hop — the ring-wide lockstep
                yield Timeout(HOP_DISPATCH_OVERHEAD)
                yield machine.interconnect.transfer(
                    rank, nxt, kv_bytes, "nccl")
                hop_done[nxt].post_add(step, 1, from_rank=rank)
                yield hop_done[rank].wait_geq(step, 1)
        if state is not None:
            ctx.heap.tensor(out_name, rank).write_tile(
                ((0, s_per), (0, width)), heads_to_seq(state.output()))
        return None

    return [launch_native(machine, rank, tag, partial(rank_proc, rank))
            for rank in range(world)]


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

register_family(
    name="ring_attention",
    doc="RingAttention baseline (rotating-KV lockstep ring)",
    # native host-process ring, no tile IR: one informational plan
    analyze_plans=lambda: [],
    tile_ir=False,
    slot="attention",
    launch=ring_attention,
    method="RingAttn",
)
