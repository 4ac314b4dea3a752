"""Experiment drivers: one function per paper table/figure.

Each driver returns plain dicts of simulated times, so the benchmark
files (``benchmarks/``), the examples and the tests share one source of
truth.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines import decompose, flux, nonoverlap, vllm_moe
from repro.bench.harness import DEFAULT_WORLD, run_builder
from repro.config import H800, HardwareSpec
from repro.errors import RegistryError
from repro.kernels.ag_gemm import (
    AgGemmConfig,
    ag_gemm_overlapped,
    ag_gemm_tune_task,
)
from repro.kernels.ag_moe import (
    AgMoeConfig,
    ag_moe_overlapped,
    ag_moe_tune_task,
)
from repro.kernels.attention import (
    AgAttentionConfig,
    ag_attention_overlapped,
    ag_attention_tune_task,
)
from repro.kernels.gemm_rs import (
    GemmRsConfig,
    gemm_rs_overlapped,
    gemm_rs_tune_task,
)
from repro.kernels.mlp import MlpConfig, mlp_layer_tilelink
from repro.kernels.moe_common import build_moe_routing, random_router_logits
from repro.kernels.moe_layer import MoeConfig, moe_layer_tilelink
from repro.kernels.moe_rs import MoeRsConfig, moe_rs_overlapped, moe_rs_tune_task
from repro.kernels.ring_attention import ring_attention
from repro.models.configs import (
    ATTENTION_BENCHES,
    MLP_BENCHES,
    MOE_BENCHES,
    AttnShape,
    MlpShape,
    MoeShape,
)
from repro.ops.attention import flash_attention_op
from repro.registry import families, get_family
from repro.runtime.context import DistContext
from repro.tuner.cache import TuneCache
from repro.tuner.search import TuneTask, task_cache_key, tune
from repro.tuner.warm import resolve_warm_cache, warm_tuned_config


# ---------------------------------------------------------------------------
# Shipped warm cache: makes the tuned columns the default, for free
# ---------------------------------------------------------------------------
# ``benchmarks/refresh_warm_cache.py`` sweeps the Figure-8 MLP, Table-4
# MoE and Figure-10 attention shape tables offline and checks the
# resulting cache file into the repo.  When that file resolves, the
# ``*_builders`` below (``tuned=None`` by default, which only looks the
# winner up) add the TileLink-tuned column to the Figure-8/9/10 tables
# with *zero* simulation at bench time, because every lookup is a warm
# hit.  A builder whose task key is missing (changed space, foreign spec,
# deleted file) silently keeps the untuned column set.
#
# The file location and the hit-or-None resolution step live in
# :mod:`repro.tuner.warm` (the end-to-end runner's
# ``method="tilelink-tuned"`` shares them).


def _tuned_column(tuned: bool | None, tune_cache: TuneCache | None,
                  make_task: Callable[[int, HardwareSpec], TuneTask],
                  world: int, max_trials: int | None = None,
                  ) -> Callable[[DistContext], object] | None:
    """Resolve a builder's ``tuned`` flag into its TileLink-tuned column.

    Returns ``None`` when the column is off, else ``config(ctx)``: the
    tuned config for the launch's runtime world and spec, where
    ``make_task(world, spec)`` builds the family's tune task.

    ``tuned=None`` (auto) turns the column on exactly when a cache (an
    explicit ``tune_cache``, else the shipped warm cache) already holds
    the task's entry for the builder's ``world`` and H800 — enabling it
    costs one key lookup, never a simulation.  The closure then launches
    against the *runtime* ``ctx.world_size``/spec; if those diverged,
    the key misses and ``config`` returns ``None`` (callers fall back to
    the paper config) instead of running a search inside the timed
    bench.  ``tuned=True`` tunes on a miss, through ``tune_cache`` or the
    default persistent cache.
    """
    auto = tuned is None
    cache = tune_cache
    if auto:
        cache = cache if cache is not None else resolve_warm_cache()
        if cache is None or task_cache_key(
                make_task(world, H800), world=world, spec=H800,
                max_trials=max_trials) not in cache:
            return None
    elif not tuned:
        return None

    def config(ctx: DistContext):
        spec = ctx.machine.config.spec
        task = make_task(ctx.world_size, spec)
        if auto:
            return warm_tuned_config(cache, task, world=ctx.world_size,
                                     spec=spec, max_trials=max_trials)
        return tune(task, world=ctx.world_size, spec=spec,
                    cache=cache if cache is not None else TuneCache(),
                    max_trials=max_trials).best_config

    return config


# ---------------------------------------------------------------------------
# MLP parts (Table 2, Figure 8)
# ---------------------------------------------------------------------------

def _alloc_ag(ctx: DistContext, m: int, n: int, k: int) -> None:
    world = ctx.world_size
    ctx.alloc("x", (m // world, k), "float16", fill=None)
    ctx.alloc("w", (k, n), "float16", fill=None)
    ctx.alloc("y", (m, n), "float16", fill=None)


def _alloc_rs(ctx: DistContext, m: int, n: int, k: int) -> None:
    world = ctx.world_size
    ctx.alloc("x", (m, k), "float16", fill=None)
    ctx.alloc("w", (k, n), "float16", fill=None)
    ctx.alloc("y", (m // world, n), "float32", fill=None)


def ag_gemm_builders(shape: MlpShape, world: int = DEFAULT_WORLD, *,
                     tuned: bool | None = None,
                     tune_cache: TuneCache | None = None,
                     tune_max_trials: int | None = None,
                     ) -> dict[str, Callable[[DistContext], None]]:
    m, k = shape.s, shape.h
    n = shape.i // world
    tuned_config = _tuned_column(
        tuned, tune_cache,
        lambda w, spec: ag_gemm_tune_task(m, n, k, world=w, spec=spec),
        world, tune_max_trials)

    def non(ctx: DistContext) -> None:
        _alloc_ag(ctx, m, n, k)
        nonoverlap.ag_gemm_nonoverlap(ctx, m, n, k, "x", "w", "y")

    def dec(ctx: DistContext) -> None:
        _alloc_ag(ctx, m, n, k)
        decompose.ag_gemm_decomposed(ctx, m, n, k, "x", "w", "y")

    def flx(ctx: DistContext) -> None:
        _alloc_ag(ctx, m, n, k)
        flux.ag_gemm_flux(ctx, m, n, k, "x", "w", "y")

    def tl(ctx: DistContext) -> None:
        _alloc_ag(ctx, m, n, k)
        cfg = AgGemmConfig(m=m, n=n, k=k, mode="dma")
        ag_gemm_overlapped(ctx, cfg, "x", "w", "y")

    out = {"cuBLAS+NCCL": non, "Async-TP": dec, "FLUX": flx, "TileLink": tl}
    if tuned_config:
        def tl_tuned(ctx: DistContext) -> None:
            _alloc_ag(ctx, m, n, k)
            cfg = tuned_config(ctx) or AgGemmConfig(m=m, n=n, k=k, mode="dma")
            ag_gemm_overlapped(ctx, cfg, "x", "w", "y")

        out["TileLink-tuned"] = tl_tuned
    return out


def gemm_rs_builders(shape: MlpShape, world: int = DEFAULT_WORLD, *,
                     tuned: bool | None = None,
                     tune_cache: TuneCache | None = None,
                     tune_max_trials: int | None = None,
                     ) -> dict[str, Callable[[DistContext], None]]:
    m, n = shape.s, shape.h
    k = shape.i // world
    tuned_config = _tuned_column(
        tuned, tune_cache,
        lambda w, spec: gemm_rs_tune_task(m, n, k, world=w, spec=spec),
        world, tune_max_trials)

    def non(ctx: DistContext) -> None:
        _alloc_rs(ctx, m, n, k)
        nonoverlap.gemm_rs_nonoverlap(ctx, m, n, k, "x", "w", "y")

    def dec(ctx: DistContext) -> None:
        _alloc_rs(ctx, m, n, k)
        decompose.gemm_rs_decomposed(ctx, m, n, k, "x", "w", "y")

    def flx(ctx: DistContext) -> None:
        _alloc_rs(ctx, m, n, k)
        flux.gemm_rs_flux(ctx, m, n, k, "x", "w", "y")

    def tl(ctx: DistContext) -> None:
        _alloc_rs(ctx, m, n, k)
        cfg = GemmRsConfig(m=m, n=n, k=k, mode="hybrid")
        gemm_rs_overlapped(ctx, cfg, "x", "w", "y")

    out = {"cuBLAS+NCCL": non, "Async-TP": dec, "FLUX": flx, "TileLink": tl}
    if tuned_config:
        def tl_tuned(ctx: DistContext) -> None:
            _alloc_rs(ctx, m, n, k)
            cfg = tuned_config(ctx) \
                or GemmRsConfig(m=m, n=n, k=k, mode="hybrid")
            gemm_rs_overlapped(ctx, cfg, "x", "w", "y")

        out["TileLink-tuned"] = tl_tuned
    return out


def mlp_builders(shape: MlpShape, world: int = DEFAULT_WORLD
                 ) -> dict[str, Callable[[DistContext], None]]:
    cfg = MlpConfig(m=shape.s, h=shape.h, i=shape.i)

    def _alloc(ctx: DistContext) -> None:
        ishard = cfg.i_shard(ctx.world_size)
        ctx.alloc("x", (cfg.m // ctx.world_size, cfg.h), "float16", fill=None)
        ctx.alloc("w1", (cfg.h, ishard), "float16", fill=None)
        ctx.alloc("w2", (ishard, cfg.h), "float16", fill=None)
        ctx.alloc("y", (cfg.m // ctx.world_size, cfg.h), "float32", fill=None)

    def non(ctx: DistContext) -> None:
        _alloc(ctx)
        nonoverlap.mlp_nonoverlap(ctx, cfg, "x", "w1", "w2", "y")

    def dec(ctx: DistContext) -> None:
        _alloc(ctx)
        decompose.mlp_decomposed(ctx, cfg, "x", "w1", "w2", "y")

    def flx(ctx: DistContext) -> None:
        _alloc(ctx)
        flux.mlp_flux(ctx, cfg, "x", "w1", "w2", "y")

    def tl(ctx: DistContext) -> None:
        _alloc(ctx)
        mlp_layer_tilelink(ctx, cfg, "x", "w1", "w2", "y")

    return {"cuBLAS+NCCL": non, "Async-TP": dec, "FLUX": flx, "TileLink": tl}


def run_method_times(builders: dict[str, Callable[[DistContext], None]],
                     world: int = DEFAULT_WORLD) -> dict[str, float]:
    return {name: run_builder(b, world=world) for name, b in builders.items()}


# ---------------------------------------------------------------------------
# Autotuning: tuned config vs the paper's hand-picked config
# ---------------------------------------------------------------------------

def tuned_vs_paper(shape: MlpShape | MoeShape, kernel: str = "ag_gemm",
                   world: int = DEFAULT_WORLD) -> dict[str, object]:
    """Autotune one MLP/MoE kernel on ``shape`` (exhaustive search, no
    cache); report both columns.

    ``shape`` is an :class:`MlpShape` for the dense kernels and a
    :class:`MoeShape` for the MoE pair.  Returns ``paper_time`` (the
    shipped default config, which seeds the tuner's incumbent),
    ``tuned_time`` and ``speedup`` alongside the winning candidate and the
    full :class:`repro.tuner.TuneResult` (prune statistics, trial log,
    cache provenance).

    Dispatch is registry-driven: any family whose ``sweep_entries`` hook
    turns ``shape`` into exactly one tune task is tunable here.
    """
    fam = _sweep_family(kernel)
    tasks = fam.sweep_entries(shape, world=world)
    if len(tasks) != 1:
        raise ValueError(f"{kernel!r} sweeps {len(tasks)} tasks on "
                         f"{shape.name}; tuned_vs_paper needs one")
    res = tune(tasks[0][1], world=world)
    return {
        "paper_time": res.default_time, "tuned_time": res.best_time,
        "speedup": (res.default_time / res.best_time
                    if res.default_time else float("nan")),
        "config": res.best, "result": res,
    }


# ---------------------------------------------------------------------------
# Sweep task tables: whole paper tables as TuneTask lists
# ---------------------------------------------------------------------------
# Feed these to ``repro.tuner.sweep`` — one shared cache warms the whole
# table, so the tuned columns of Figures 8/9 cost one offline sweep instead
# of a tuning run per bench invocation.
#
# Task construction is registry-driven: each family's ``sweep_entries``
# hook builds its own (name, task) pairs, and the per-table functions
# below only gate on the family's ``sweep_category``.

#: the paper shape table of each ``sweep_category``
_PAPER_TABLES = {"mlp": MLP_BENCHES, "moe": MOE_BENCHES,
                 "attention": ATTENTION_BENCHES}


def _sweep_family(kernel: str, category: str | None = None,
                  label: str = "tunable"):
    """Resolve a sweep kernel name, enforcing its table membership."""
    try:
        fam = get_family(kernel)
    except RegistryError:
        fam = None
    if fam is None or fam.sweep_entries is None or (
            category is not None and fam.sweep_category != category):
        raise ValueError(f"unknown {label} sweep kernel {kernel!r}")
    return fam


def _table_tasks(shapes: Sequence, kernels: Sequence[str], category: str,
                 label: str, world: int, spec: HardwareSpec,
                 **kw) -> list[tuple[str, TuneTask]]:
    tasks: list[tuple[str, TuneTask]] = []
    for shape in shapes:
        for kernel in kernels:
            fam = _sweep_family(kernel, category, label)
            tasks.extend(fam.sweep_entries(shape, world=world, spec=spec,
                                           **kw))
    return tasks


def mlp_sweep_tasks(shapes: Sequence[MlpShape],
                    kernels: Sequence[str] = ("ag_gemm", "gemm_rs"),
                    world: int = DEFAULT_WORLD, *, spec: HardwareSpec = H800,
                    ) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Figure-8 MLP shape table."""
    return _table_tasks(shapes, kernels, "mlp", "MLP", world, spec)


def moe_sweep_tasks(shapes: Sequence[MoeShape],
                    kernels: Sequence[str] = ("ag_moe", "moe_rs"),
                    world: int = DEFAULT_WORLD, *, spec: HardwareSpec = H800,
                    router_seed: int = 17) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Table-4 MoE shape table."""
    return _table_tasks(shapes, kernels, "moe", "MoE", world, spec,
                        router_seed=router_seed)


def attention_sweep_tasks(shapes: Sequence[AttnShape],
                          kernels: Sequence[str] = ("ag_attention",),
                          world: int = DEFAULT_WORLD, *,
                          spec: HardwareSpec = H800,
                          causal: bool = True) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Figure-10 attention sweep."""
    return _table_tasks(shapes, kernels, "attention", "attention", world,
                        spec, causal=causal)


def registry_sweep_tasks(world: int = DEFAULT_WORLD, *,
                         spec: HardwareSpec = H800,
                         ) -> list[tuple[str, TuneTask]]:
    """Every warm-cached family's sweep tasks over its whole paper table.

    This is the warm-cache refresh script's expected task set: each
    family registered with ``warm_cached=True`` contributes its
    ``sweep_entries`` over its ``sweep_category`` table, in registry
    order.
    """
    tasks: list[tuple[str, TuneTask]] = []
    for fam in families().values():
        if fam.warm_cached:
            for shape in _PAPER_TABLES[fam.sweep_category]:
                tasks.extend(fam.sweep_entries(shape, world=world,
                                               spec=spec))
    return tasks


# ---------------------------------------------------------------------------
# MoE parts (Figure 9)
# ---------------------------------------------------------------------------

def _moe_setup(ctx: DistContext, shape: MoeShape, block_m: int = 128):
    world = ctx.world_size
    cfg = MoeConfig(m=shape.s, h=shape.h, i=shape.i, n_experts=shape.e,
                    topk=shape.topk, block_m=block_m)
    logits = random_router_logits(shape.s, shape.e, seed=17)
    routing = build_moe_routing(logits, shape.s // world, world, shape.topk,
                                block_m=block_m)
    return cfg, routing


def moe_part1_builders(shape: MoeShape, world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    tuned_config = _tuned_column(
        tuned, tune_cache,
        lambda w, spec: ag_moe_tune_task(shape.s, shape.h, shape.i // w,
                                         shape.e, shape.topk, world=w,
                                         spec=spec),
        world, tune_max_trials)

    def make(impl: str) -> Callable[[DistContext], None]:
        def build(ctx: DistContext) -> None:
            p1 = None
            block_m = 128
            if impl == "tilelink-tuned":
                # resolve the tuned config first: the routing granularity
                # must follow the tuned row tile
                p1 = tuned_config(ctx)
                if p1 is not None:
                    block_m = p1.block_m
            cfg, routing = _moe_setup(ctx, shape, block_m=block_m)
            ishard = cfg.i_shard(ctx.world_size)
            ctx.alloc("x", (cfg.m // ctx.world_size, cfg.h), "float16",
                      fill=None)
            if impl in ("tilelink", "tilelink-tuned"):
                ctx.alloc("w1", (cfg.n_experts * cfg.h, ishard), "float16",
                          fill=None)
                ctx.alloc("g", (routing.padded_rows, ishard), "float16",
                          fill=None)
                if p1 is None:
                    p1 = AgMoeConfig(m=cfg.m, h=cfg.h, d=ishard,
                                     n_experts=cfg.n_experts, topk=cfg.topk,
                                     block_m=cfg.block_m)
                ag_moe_overlapped(ctx, p1, routing, "x", "w1", "g")
            else:
                ctx.alloc("w1", (cfg.n_experts, cfg.h, ishard), "float16",
                          fill=None)
                ctx.alloc("g", (len(routing.sorted_token_ids), ishard),
                          "float16", fill=None)
                vllm_moe.moe_part1_baseline(ctx, cfg, routing, impl, "x",
                                            "w1", "g")
        return build

    out = {"cuBLAS+NCCL": make("cublas"), "CUTLASS+NCCL": make("cutlass"),
           "vLLM-Op": make("vllm"), "TileLink": make("tilelink")}
    if tuned_config:
        out["TileLink-tuned"] = make("tilelink-tuned")
    return out


def moe_part2_builders(shape: MoeShape, world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    tuned_config = _tuned_column(
        tuned, tune_cache,
        lambda w, spec: moe_rs_tune_task(shape.s, shape.h, shape.i // w,
                                         shape.e, shape.topk, world=w,
                                         spec=spec),
        world, tune_max_trials)

    def make(impl: str) -> Callable[[DistContext], None]:
        def build(ctx: DistContext) -> None:
            p2 = None
            block_m = 128
            if impl == "tilelink-tuned":
                p2 = tuned_config(ctx)
                if p2 is not None:
                    block_m = p2.block_m
            cfg, routing = _moe_setup(ctx, shape, block_m=block_m)
            ishard = cfg.i_shard(ctx.world_size)
            ctx.alloc("y", (cfg.m // ctx.world_size, cfg.h), "float32",
                      fill=None)
            if impl in ("tilelink", "tilelink-tuned"):
                ctx.alloc("g", (routing.padded_rows, ishard), "float16",
                          fill=None)
                ctx.alloc("w2", (cfg.n_experts * ishard, cfg.h), "float16",
                          fill=None)
                if p2 is None:
                    p2 = MoeRsConfig(m=cfg.m, h=cfg.h, d=ishard,
                                     block_m=cfg.block_m)
                moe_rs_overlapped(ctx, p2, routing, "g", "w2", "y")
            else:
                ctx.alloc("g", (len(routing.sorted_token_ids), ishard),
                          "float16", fill=None)
                ctx.alloc("w2", (cfg.n_experts, ishard, cfg.h), "float16",
                          fill=None)
                vllm_moe.moe_part2_baseline(ctx, cfg, routing, impl, "g",
                                            "w2", "y")
        return build

    out = {"cuBLAS+NCCL": make("cublas"), "CUTLASS+NCCL": make("cutlass"),
           "vLLM-Op": make("vllm"), "TileLink": make("tilelink")}
    if tuned_config:
        out["TileLink-tuned"] = make("tilelink-tuned")
    return out


def moe_layer_builders(shape: MoeShape, world: int = DEFAULT_WORLD
                       ) -> dict[str, Callable[[DistContext], None]]:
    def make(impl: str) -> Callable[[DistContext], None]:
        def build(ctx: DistContext) -> None:
            cfg, routing = _moe_setup(ctx, shape)
            ishard = cfg.i_shard(ctx.world_size)
            ctx.alloc("x", (cfg.m // ctx.world_size, cfg.h), "float16",
                      fill=None)
            ctx.alloc("y", (cfg.m // ctx.world_size, cfg.h), "float32",
                      fill=None)
            if impl == "tilelink":
                ctx.alloc("w1", (cfg.n_experts * cfg.h, ishard), "float16",
                          fill=None)
                ctx.alloc("w2", (cfg.n_experts * ishard, cfg.h), "float16",
                          fill=None)
                moe_layer_tilelink(ctx, cfg, routing, "x", "w1", "w2", "y")
            else:
                ctx.alloc("w1", (cfg.n_experts, cfg.h, ishard), "float16",
                          fill=None)
                ctx.alloc("w2", (cfg.n_experts, ishard, cfg.h), "float16",
                          fill=None)
                vllm_moe.moe_layer_baseline(ctx, cfg, routing, impl, "x",
                                            "w1", "w2", "y")
        return build

    return {"cuBLAS+NCCL": make("cublas"), "CUTLASS+NCCL": make("cutlass"),
            "vLLM-Op": make("vllm"), "TileLink": make("tilelink")}


# ---------------------------------------------------------------------------
# Attention (Figure 10)
# ---------------------------------------------------------------------------

def attention_builders(shape: AttnShape, seq_len: int,
                       world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    cfg = AgAttentionConfig(heads=shape.heads, head_dim=shape.head_dim,
                            seq_len=seq_len, causal=True)
    tuned_config = _tuned_column(
        tuned, tune_cache,
        lambda w, spec: ag_attention_tune_task(
            shape.heads, shape.head_dim, seq_len, causal=True, world=w,
            spec=spec),
        world, tune_max_trials)

    def _alloc(ctx: DistContext) -> None:
        s_per = cfg.seq_len // ctx.world_size
        for name in ("q", "k", "v"):
            ctx.alloc(name, (s_per, cfg.width), "float16", fill=None)
        ctx.alloc("o", (s_per, cfg.width), "float32", fill=None)

    def torch_build(ctx: DistContext) -> None:
        _alloc(ctx)
        nonoverlap.attention_nonoverlap(ctx, cfg, "q", "k", "v", "o")

    def ring_build(ctx: DistContext) -> None:
        _alloc(ctx)
        ring_attention(ctx, cfg, "q", "k", "v", "o")

    def tl_build(ctx: DistContext) -> None:
        _alloc(ctx)
        ag_attention_overlapped(ctx, cfg, "q", "k", "v", "o")

    out = {"Torch": torch_build, "RingAttn": ring_build,
           "TileLink": tl_build}
    if tuned_config:
        def tl_tuned(ctx: DistContext) -> None:
            _alloc(ctx)
            tcfg = tuned_config(ctx) or cfg
            ag_attention_overlapped(ctx, tcfg, "q", "k", "v", "o")

        out["TileLink-tuned"] = tl_tuned
    return out


def attention_overlap_ratio(shape: AttnShape, seq_len: int,
                            world: int = DEFAULT_WORLD) -> float:
    """ratio = (comp_only + comm_only - overlap) / comm_only (Figure 10)."""
    cfg = AgAttentionConfig(heads=shape.heads, head_dim=shape.head_dim,
                            seq_len=seq_len, causal=True)
    s_per = cfg.seq_len // world

    def comm_only(ctx: DistContext) -> None:
        from repro.collectives.copy_engine import dma_all_gather
        for name in ("k", "v"):
            ctx.alloc(name, (s_per, cfg.width), "float16", fill=None)
            ctx.alloc(f"{name}.full", (cfg.seq_len, cfg.width), "float16",
                      fill=None)
            dma_all_gather(ctx, name, f"{name}.full", None)

    def comp_only(ctx: DistContext) -> None:
        ctx.alloc("q", (s_per, cfg.width), "float16", fill=None)
        ctx.alloc("k", (cfg.seq_len, cfg.width), "float16", fill=None)
        ctx.alloc("o", (s_per, cfg.width), "float32", fill=None)
        for rank in range(ctx.world_size):
            flash_attention_op(
                ctx, rank, ctx.heap.tensor("q", rank),
                ctx.heap.tensor("k", rank), ctx.heap.tensor("k", rank),
                ctx.heap.tensor("o", rank), cfg.heads, cfg.head_dim,
                causal=True, q_offset=rank * s_per)

    def overlapped(ctx: DistContext) -> None:
        for name in ("q", "k", "v"):
            ctx.alloc(name, (s_per, cfg.width), "float16", fill=None)
        ctx.alloc("o", (s_per, cfg.width), "float32", fill=None)
        ag_attention_overlapped(ctx, cfg, "q", "k", "v", "o")

    t_comm = run_builder(comm_only, world=world)
    t_comp = run_builder(comp_only, world=world)
    t_over = run_builder(overlapped, world=world)
    return (t_comp + t_comm - t_over) / t_comm
