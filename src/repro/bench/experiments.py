"""Experiment drivers: one function per paper table/figure.

Each driver returns plain dicts of simulated times, so the benchmark
files (``benchmarks/``), the examples and the tests share one source of
truth.  The figure tables' ``*_builders`` are one factory over the
implementation table (:mod:`repro.registry`): each maps every method
that registered the figure's op slot, in column order, to a
fresh-context builder.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from repro.bench.harness import DEFAULT_WORLD, run_builder
from repro.config import H800, HardwareSpec
from repro.kernels.ag_gemm import AgGemmConfig
from repro.kernels.attention import AgAttentionConfig
from repro.kernels.gemm_rs import GemmRsConfig
from repro.kernels.mlp import MlpConfig
from repro.kernels.moe_common import routing_memo
from repro.kernels.moe_layer import MoeConfig
from repro.models.configs import (
    ATTENTION_BENCHES,
    MLP_BENCHES,
    MOE_BENCHES,
    AttnShape,
    MlpShape,
    MoeShape,
)
from repro.ops.attention import flash_attention_op
from repro.registry import (
    alloc_operands,
    families,
    get_impl,
    launches,
    slot_builder,
)
from repro.runtime.context import DistContext
from repro.tuner.cache import TuneCache
from repro.tuner.search import TuneTask, tune
from repro.tuner.warm import resolve_warm_cache, tuned_config


# ---------------------------------------------------------------------------
# Figure tables (Table 2, Figures 8-10): one factory over the method table
# ---------------------------------------------------------------------------
# The TileLink-tuned column launches TileLink's entry on its config as
# :func:`repro.tuner.warm.tuned_config` resolves it.  ``tuned=None`` (the
# default) only looks winners up: the column appears when a cache
# (``tune_cache``, else the shipped warm cache over the Figure-8, Table-4
# and Figure-10 tables) holds one for the builder's ``world`` on H800, and
# each launch looks up its own world and spec, keeping the paper config
# on a miss.  ``tuned=True`` tunes on a miss, through ``tune_cache`` or
# the default persistent cache.

def _table(slot: str, cfg, world: int, tuned: bool | None = False,
           tune_cache: TuneCache | None = None, max_trials: int | None = None,
           routing: tuple = ()) -> dict[str, Callable[[DistContext], None]]:
    """``slot``'s columns, each launching on ``cfg`` (and ``routing``) on
    the slot's freshly allocated operands."""
    resolve = None
    if tuned is None:
        cache = tune_cache if tune_cache is not None else resolve_warm_cache()
        resolve = partial(tuned_config, cache=cache, max_trials=max_trials)
        if resolve(get_impl(slot, "TileLink").retune, cfg, world=world,
                   spec=H800) is None:
            resolve = None
    elif tuned:
        resolve = partial(tuned_config, cache=tune_cache, search=True,
                          max_trials=max_trials)

    return {method: slot_builder(slot, launch, cfg, *routing)
            for method, launch in launches(slot, resolve).items()}


def _routing(shape: MoeShape, world: int) -> tuple:
    """An MoE table's routing arguments: the Table-4 router's assignment
    (seed 17) over ``world`` ranks."""
    return (routing_memo(shape.s, shape.e, shape.topk, world),)


# Each tunable slot's paper config at one point of its figure table: what
# the table's columns run, what its TileLink-tuned column retunes, and what
# the paper-table sweeps below tune.

def _ag_gemm(shape: MlpShape, world: int) -> AgGemmConfig:
    return AgGemmConfig(m=shape.s, n=shape.i // world, k=shape.h)


def _gemm_rs(shape: MlpShape, world: int) -> GemmRsConfig:
    return GemmRsConfig(m=shape.s, n=shape.h, k=shape.i // world)


def _moe(shape: MoeShape) -> MoeConfig:
    return MoeConfig(m=shape.s, h=shape.h, i=shape.i, n_experts=shape.e,
                     topk=shape.topk)


def _attention(shape: AttnShape, seq_len: int) -> AgAttentionConfig:
    return AgAttentionConfig(heads=shape.heads, head_dim=shape.head_dim,
                             seq_len=seq_len, causal=True)


def ag_gemm_builders(shape: MlpShape, world: int = DEFAULT_WORLD, *,
                     tuned: bool | None = None,
                     tune_cache: TuneCache | None = None,
                     tune_max_trials: int | None = None,
                     ) -> dict[str, Callable[[DistContext], None]]:
    return _table("ag_gemm", _ag_gemm(shape, world), world, tuned, tune_cache,
                  tune_max_trials)


def gemm_rs_builders(shape: MlpShape, world: int = DEFAULT_WORLD, *,
                     tuned: bool | None = None,
                     tune_cache: TuneCache | None = None,
                     tune_max_trials: int | None = None,
                     ) -> dict[str, Callable[[DistContext], None]]:
    return _table("gemm_rs", _gemm_rs(shape, world), world, tuned, tune_cache,
                  tune_max_trials)


def mlp_builders(shape: MlpShape, world: int = DEFAULT_WORLD
                 ) -> dict[str, Callable[[DistContext], None]]:
    return _table("mlp", MlpConfig(m=shape.s, h=shape.h, i=shape.i), world)


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

    Dispatch is registry-driven: any family whose table entry has a
    ``retune`` hook is tunable here, on its slot's one paper config at
    ``shape``.
    """
    tasks = _sweep([shape], [_retune_hook(kernel)], world, H800)
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
# Task construction is registry-driven: a family's table entry's
# ``retune`` hook, the one the TileLink-tuned column calls, tunes the
# paper configs its slot's figure table runs.

#: each tunable slot's sweep table (label and paper shapes) and its paper
#: configs at one shape, each named by its table point
_PAPER_SLOTS = {
    "ag_gemm": ("MLP", MLP_BENCHES,
                lambda shape, world: [(shape.name, _ag_gemm(shape, world))]),
    "gemm_rs": ("MLP", MLP_BENCHES,
                lambda shape, world: [(shape.name, _gemm_rs(shape, world))]),
    "ag_moe": ("MoE", MOE_BENCHES,
               lambda shape, world: [(shape.name, _moe(shape))]),
    "moe_rs": ("MoE", MOE_BENCHES,
               lambda shape, world: [(shape.name, _moe(shape))]),
    "attention": ("attention", ATTENTION_BENCHES, lambda shape, world: [
        (f"{shape.name}/s{n}", _attention(shape, n))
        for n in shape.seq_lens]),
}


def _retune_hook(kernel: str, table: str | None = None
                 ) -> tuple[str, Callable]:
    """Family ``kernel``'s slot and ``retune`` hook; its slot must be one
    of sweep table ``table`` (of any sweep table if None)."""
    fam = families().get(kernel)
    slot = fam.entry[0] if fam and fam.entry else None
    if slot in _PAPER_SLOTS:
        retune = get_impl(*fam.entry).retune
        if retune is not None and table in (None, _PAPER_SLOTS[slot][0]):
            return slot, retune
    raise ValueError(f"unknown {table or 'tunable'} sweep kernel {kernel!r}")


def _sweep(shapes: Sequence, hooks: Sequence[tuple[str, Callable]],
           world: int, spec: HardwareSpec) -> list[tuple[str, TuneTask]]:
    """Each ``(slot, retune)`` hook's task at each paper config of each
    shape, named ``<table point>/<kernel>``; a shape of another table
    than the slot's raises."""
    tasks: list[tuple[str, TuneTask]] = []
    for shape in shapes:
        for slot, retune in hooks:
            label, table, configs = _PAPER_SLOTS[slot]
            if not isinstance(shape, type(table[0])):
                raise ValueError(
                    f"{shape.name!r} ({type(shape).__name__}) is not a shape "
                    f"of the {label} table, which {slot!r} sweeps")
            for point, cfg in configs(shape, world):
                task = retune(cfg, world=world, spec=spec)
                tasks.append((f"{point}/{task.kernel}", task))
    return tasks


def mlp_sweep_tasks(shapes: Sequence[MlpShape],
                    kernels: Sequence[str] = ("ag_gemm", "gemm_rs"),
                    world: int = DEFAULT_WORLD, *, spec: HardwareSpec = H800,
                    ) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Figure-8 MLP shape table."""
    return _sweep(shapes, [_retune_hook(k, "MLP") for k in kernels], world,
                  spec)


def moe_sweep_tasks(shapes: Sequence[MoeShape],
                    kernels: Sequence[str] = ("ag_moe", "moe_rs"),
                    world: int = DEFAULT_WORLD, *, spec: HardwareSpec = H800,
                    ) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Table-4 MoE shape table."""
    return _sweep(shapes, [_retune_hook(k, "MoE") for k in kernels], world,
                  spec)


def attention_sweep_tasks(shapes: Sequence[AttnShape],
                          kernels: Sequence[str] = ("ag_attention",),
                          world: int = DEFAULT_WORLD, *,
                          spec: HardwareSpec = H800,
                          ) -> list[tuple[str, TuneTask]]:
    """(name, task) pairs covering the Figure-10 attention sweep."""
    return _sweep(shapes, [_retune_hook(k, "attention") for k in kernels],
                  world, spec)


def registry_sweep_tasks(world: int = DEFAULT_WORLD, *,
                         spec: HardwareSpec = H800,
                         ) -> list[tuple[str, TuneTask]]:
    """The tasks whose winners the TileLink-tuned columns look up.

    This is the warm-cache refresh script's expected task set: each
    slot's TileLink entry that has a ``retune`` hook, over its slot's
    paper table.
    """
    tasks: list[tuple[str, TuneTask]] = []
    for slot, (_label, shapes, _configs) in _PAPER_SLOTS.items():
        retune = get_impl(slot, "TileLink").retune
        if retune is not None:
            tasks += _sweep(shapes, [(slot, retune)], world, spec)
    return tasks


# ---------------------------------------------------------------------------
# MoE parts and layer (Figure 9) and attention (Figure 10)
# ---------------------------------------------------------------------------

def moe_part1_builders(shape: MoeShape, world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    return _table("ag_moe", _moe(shape), world, tuned, tune_cache,
                  tune_max_trials, _routing(shape, world))


def moe_part2_builders(shape: MoeShape, world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    return _table("moe_rs", _moe(shape), world, tuned, tune_cache,
                  tune_max_trials, _routing(shape, world))


def moe_layer_builders(shape: MoeShape, world: int = DEFAULT_WORLD
                       ) -> dict[str, Callable[[DistContext], None]]:
    return _table("moe_layer", _moe(shape), world,
                  routing=_routing(shape, world))


def attention_builders(shape: AttnShape, seq_len: int,
                       world: int = DEFAULT_WORLD, *,
                       tuned: bool | None = None,
                       tune_cache: TuneCache | None = None,
                       tune_max_trials: int | None = None,
                       ) -> dict[str, Callable[[DistContext], None]]:
    return _table("attention", _attention(shape, seq_len), world, tuned,
                  tune_cache, tune_max_trials)


def attention_overlap_ratio(shape: AttnShape, seq_len: int,
                            world: int = DEFAULT_WORLD) -> float:
    """ratio = (comp_only + comm_only - overlap) / comm_only (Figure 10)."""
    cfg = _attention(shape, seq_len)
    s_per = cfg.seq_len // world

    def comm_only(ctx: DistContext) -> None:
        from repro.collectives.copy_engine import dma_all_gather
        _q, *kv, _o = alloc_operands(ctx, "attention", cfg)
        for name in kv:
            ctx.alloc(f"{name}.full", (cfg.seq_len, cfg.width), "float16",
                      fill=None)
            dma_all_gather(ctx, name, f"{name}.full", None)

    def comp_only(ctx: DistContext) -> None:
        q, _k, _v, o = alloc_operands(ctx, "attention", cfg)
        kv = ctx.alloc("kv.full", (cfg.seq_len, cfg.width), "float16",
                       fill=None)
        for rank in range(ctx.world_size):
            flash_attention_op(
                ctx, rank, ctx.heap.tensor(q, rank), kv[rank], kv[rank],
                ctx.heap.tensor(o, rank), cfg.heads, cfg.head_dim,
                causal=True, q_offset=rank * s_per)

    t_comm = run_builder(comm_only, world=world)
    t_comp = run_builder(comp_only, world=world)
    t_over = run_builder(attention_builders(shape, seq_len, world, tuned=False)
                         ["TileLink"], world=world)
    return (t_comp + t_comm - t_over) / t_comm
