"""Async-TP PyTorch style operator decomposition (§2.2, Table 2).

The original operators are split into ``world_size`` chunks; P2P copies
run on a communication stream while chunk GEMMs run on the compute stream,
with the host driving every cross-stream dependency.  The two costs the
paper measures are modelled directly:

* **host intervention** — each chunk needs a host sync (stream wait /
  event) plus a fresh kernel launch, serialising ~tens of microseconds of
  CPU time per chunk;
* **small-GEMM inefficiency** — an (m/world) x n x k GEMM fills a fraction
  of the device (wave quantization + fixed prologue), so the sum of chunk
  GEMMs exceeds the monolithic GEMM's time.

Chunk GEMMs hold ``n_sms - COPY_SMS`` SMs because the copy kernels hold
``COPY_SMS`` SM channels of the source rank concurrently (Async-TP's
copies are SM-driven); each copy records its hold as a ``comm`` interval.
These are the "Async-TP" table entries (:mod:`repro.registry`).
"""

from __future__ import annotations

from repro.kernels.mlp import MlpConfig
from repro.memory.tensor import SimTensor
from repro.ops.activation import silu_op
from repro.ops.gemm import gemm_kernel_gen
from repro.registry import gemm_entry, register_impl
from repro.runtime.context import DistContext
from repro.runtime.launcher import native_kernel
from repro.sim.engine import Join, Process, ProcessGen, Timeout

#: SM channels the chunked copy kernels occupy.
COPY_SMS = 20

#: torch.distributed python dispatch + c10d bookkeeping per decomposed op
#: (the "non-negligible host intervention" of §2.2, on top of launch/sync)
DISPATCH_OVERHEAD = 30e-6


def _chunk_copy(ctx: DistContext, src_rank: int, dst_rank: int, name: str,
                src_name: str, rows: tuple[int, int], cols: int,
                dst_rows: tuple[int, int]) -> ProcessGen:
    """SM-driven P2P chunk copy (cudaMemcpyAsync peer access style)."""
    machine = ctx.machine

    def body(_held: int) -> ProcessGen:
        src = ctx.heap.tensor(src_name, src_rank)
        nbytes = (rows[1] - rows[0]) * cols * src.itemsize
        payload = src.read_tile((rows, (0, cols)))
        yield machine.interconnect.transfer(src_rank, dst_rank, nbytes, "nccl")
        if machine.config.execute_numerics:
            ctx.heap.tensor(name, dst_rank).write_tile(
                (dst_rows, (0, cols)), payload)
        return None

    return native_kernel(machine, src_rank, f"sm_copy:{name}", body,
                         sms=COPY_SMS, category="comm")


def ag_gemm_decomposed(ctx: DistContext, m: int, n: int, k: int,
                       x_name: str, w_name: str, out_name: str,
                       tag: str = "async.ag") -> list[Process]:
    """Chunked AllGather + GEMM with host-driven inter-chunk sync."""
    machine = ctx.machine
    world = ctx.world_size
    m_per = m // world
    gathered = f"{tag}.gathered"
    ctx.alloc(gathered, (m, k), "float16", fill=None)
    procs = []

    def orchestrate(rank: int) -> ProcessGen:
        host = machine.hosts[rank]
        comm = machine.stream(rank, "comm")
        compute = machine.stream(rank, "default")
        w = ctx.heap.tensor(w_name, rank)
        out = ctx.heap.tensor(out_name, rank)
        gathered_t = ctx.heap.tensor(gathered, rank)
        # own chunk lands locally; one staged peer copy in flight at a time
        # (the staging-buffer reuse of torch's all_gather_matmul)
        yield from ctx.rank_copy_data(
            gathered, rank, rank, ((0, m_per), (0, k)),
            ((rank * m_per, (rank + 1) * m_per), (0, k)), src_name=x_name)
        order = [rank] + [(rank + s + 1) % world for s in range(world - 1)]
        pending: dict[int, object] = {}

        def kick(src: int) -> ProcessGen:
            yield Timeout(DISPATCH_OVERHEAD + machine.cost.launch_overhead())
            pending[src] = comm.enqueue(
                _chunk_copy(ctx, src, rank, gathered, x_name,
                            (0, m_per), k,
                            (src * m_per, (src + 1) * m_per)),
                name=f"{tag}.copy[{rank}.{src}]")
            return None

        if len(order) > 1:
            yield from kick(order[1])
        for idx, src in enumerate(order):
            if src in pending:
                # host waits for the chunk before launching its GEMM
                yield from host.sync(pending[src])
            if idx + 1 < len(order):
                yield from kick(order[idx + 1])
            yield Timeout(DISPATCH_OVERHEAD)
            chunk = _ChunkView(gathered_t, src * m_per, m_per)
            out_view = _ChunkView(out, src * m_per, m_per)
            proc = yield from host.launch(
                compute,
                gemm_kernel_gen(ctx, rank, chunk.tensor(ctx, gathered, rank),
                                w, out_view.tensor_out(ctx, out_name, rank),
                                machine.config.spec.n_sms - COPY_SMS),
                name=f"{tag}.gemm[{rank}.{src}]")
            # per-chunk event sync: staging-buffer recycling
            yield from host.sync(proc)
        return None

    for rank in range(world):
        procs.append(machine.spawn(orchestrate(rank),
                                   name=f"{tag}.host[{rank}]"))
    return procs


class _ChunkView:
    """Row-chunk view helper: materializes chunk tensors for library ops.

    Library GEMMs take whole tensors; decomposition operates on row
    chunks.  We hand the op a lightweight SimTensor sharing the backing
    array slice (numpy slices are views, so writes land in the parent).
    """

    def __init__(self, parent: SimTensor, row0: int, rows: int):
        self.parent = parent
        self.row0 = row0
        self.rows = rows

    def tensor(self, ctx: DistContext, name: str, rank: int) -> SimTensor:
        parent = self.parent
        data = None
        if parent.data is not None:
            data = parent.data[self.row0:self.row0 + self.rows]
        t = SimTensor.__new__(SimTensor)
        t.name = f"{name}.chunk{self.row0}"
        t.shape = (self.rows, parent.shape[1])
        t.dtype = parent.dtype
        t.rank = rank
        t.data = data
        return t

    tensor_out = tensor


def gemm_rs_decomposed(ctx: DistContext, m: int, n: int, k: int,
                       x_name: str, w_name: str, out_name: str,
                       tag: str = "async.rs") -> list[Process]:
    """Chunked GEMM + P2P partial sends + local adds, host-sequenced."""
    machine = ctx.machine
    world = ctx.world_size
    m_per = m // world
    computed = f"{tag}.computed"   # this rank's chunk GEMM outputs
    landing = f"{tag}.landing"     # chunks received from peers
    ctx.alloc(computed, (m, n), "float16", fill=None)
    ctx.alloc(landing, (m, n), "float16", fill=None)
    arrived = ctx.heap.alloc_signals(f"{tag}.arrived", world)
    procs = []

    def orchestrate(rank: int) -> ProcessGen:
        host = machine.hosts[rank]
        comm = machine.stream(rank, "comm")
        compute = machine.stream(rank, "default")
        x = ctx.heap.tensor(x_name, rank)
        w = ctx.heap.tensor(w_name, rank)
        copies = []
        for step in range(world):
            dst = (rank + step) % world
            yield Timeout(DISPATCH_OVERHEAD)
            chunk_in = _ChunkView(x, dst * m_per, m_per)
            chunk_out = _ChunkView(ctx.heap.tensor(computed, rank),
                                   dst * m_per, m_per)
            proc = yield from host.launch(
                compute,
                gemm_kernel_gen(ctx, rank, chunk_in.tensor(ctx, x_name, rank),
                                w, chunk_out.tensor(ctx, computed, rank),
                                machine.config.spec.n_sms - COPY_SMS),
                name=f"{tag}.gemm[{rank}.{step}]")
            # host sync on the chunk GEMM, then kick the send on the comm
            # stream so it overlaps the next chunk's GEMM
            yield from host.sync(proc)
            if dst != rank:
                yield Timeout(DISPATCH_OVERHEAD
                              + machine.cost.launch_overhead())

                def send(dst=dst) -> ProcessGen:
                    yield from _chunk_copy(
                        ctx, rank, dst, landing, computed,
                        (dst * m_per, (dst + 1) * m_per), n,
                        (rank * m_per, (rank + 1) * m_per))
                    arrived[dst].post_add(rank, 1, from_rank=rank)
                    return None

                copy = comm.enqueue(send(),
                                    name=f"{tag}.send[{rank}.{step}]")
                # staging reuse forces a sync before the next chunk's GEMM
                yield from host.sync(copy)
        # wait for every peer's partial to land here
        for q in range(world):
            if q != rank:
                yield arrived[rank].wait_geq(q, 1)
        # local reduction: own computed chunk + world-1 landed chunks
        def reduce_gen() -> ProcessGen:
            device = machine.device(rank)
            nbytes = 2.0 * m * n * 2
            start = machine.now
            arrival = device.reserve_hbm(nbytes)
            yield Timeout(max(nbytes / machine.cost.hbm_effective_bandwidth,
                              arrival - machine.now))
            if machine.config.trace:
                machine.record(rank, "compute", "reduce", start, machine.now)
            if machine.config.execute_numerics:
                slab = ctx.heap.tensor(landing, rank).numpy()
                own = ctx.heap.tensor(computed, rank).numpy()
                total = own[rank * m_per:(rank + 1) * m_per].copy()
                for q in range(world):
                    if q != rank:
                        total += slab[q * m_per:(q + 1) * m_per]
                ctx.heap.tensor(out_name, rank).write_tile(
                    ((0, m_per), (0, n)), total)
            return None

        proc = yield from host.launch(compute, reduce_gen(),
                                      name=f"{tag}.reduce[{rank}]")
        yield from host.sync(proc)
        return None

    for rank in range(world):
        procs.append(machine.spawn(orchestrate(rank),
                                   name=f"{tag}.host[{rank}]"))
    return procs


def mlp_decomposed(ctx: DistContext, cfg: MlpConfig, x_name: str,
                   w1_name: str, w2_name: str, out_name: str,
                   tag: str = "async.mlp") -> list[Process]:
    """Full decomposed MLP: chunked AG+GEMM, SiLU, chunked GEMM+RS."""
    world = ctx.world_size
    ishard = cfg.i_shard(world)
    inter = ctx.alloc(f"{tag}.inter", (cfg.m, ishard), "float16", fill=None)
    act = ctx.alloc(f"{tag}.act", (cfg.m, ishard), "float16", fill=None)
    p1 = ag_gemm_decomposed(ctx, cfg.m, ishard, cfg.h, x_name, w1_name,
                            f"{tag}.inter", tag=f"{tag}.p1")

    def coordinator() -> ProcessGen:
        for proc in p1:
            if not proc.done:
                yield Join(proc)
        acts = [silu_op(ctx, r, inter[r], act[r]) for r in range(world)]
        for proc in acts:
            if not proc.done:
                yield Join(proc)
        p2 = gemm_rs_decomposed(ctx, cfg.m, cfg.h, ishard, f"{tag}.act",
                                w2_name, out_name, tag=f"{tag}.p2")
        for proc in p2:
            if not proc.done:
                yield Join(proc)
        return None

    return [ctx.machine.spawn(coordinator(), name=f"{tag}.coord")]


register_impl("ag_gemm", "Async-TP", gemm_entry(ag_gemm_decomposed))
register_impl("gemm_rs", "Async-TP", gemm_entry(gemm_rs_decomposed))
register_impl("mlp", "Async-TP", mlp_decomposed)
