"""End-to-end model timing — one simulation entry point, two consumers.

:func:`layer_time` simulates one steady-state transformer layer per
(model, method) pair; it is shared by the Figure-11 end-to-end tables
(:func:`e2e_model_time` scales it by the layer count — layer times are
homogeneous in these architectures, so per-layer x n_layers matches
simulating the whole stack while keeping the event count tractable) and
by the serving simulator's step-latency table
(:mod:`repro.serve.latency`, which memoises it over token-count buckets
so the request loop never touches the discrete-event engine).

``method`` names a row of the implementation table
(:mod:`repro.registry`; :func:`repro.registry.serve_method_names` lists
the axis): :data:`METHODS` holds the base rows ``"torch"`` (cuBLAS+NCCL
baselines), ``"tilelink"`` (overlapped kernels, paper configs) and
``"tilelink-tuned"`` (each op's config resolved through the shipped warm
tuner cache, falling back to the paper config on a miss), and a kernel
family may add one (``"tilelink-chunk"``);
:func:`repro.models.transformer.build_layer` builds the method's row.

Multi-node (16 GPU) runs model the paper's DP-across-nodes / TP-in-node
deployment: each node runs the same TP-8 layer, plus a per-layer
inter-node synchronization term (parameter-server style bookkeeping over
the NIC) that both systems pay equally — which is why the paper's 16-GPU
speedup (1.29x) lands slightly below the 8-GPU one (1.32x).
"""

from __future__ import annotations

from repro.config import HardwareSpec, SimConfig
from repro.models.configs import ModelConfig
from repro.models.transformer import build_layer
from repro.registry import BASE_SERVE_METHODS as METHODS
from repro.runtime.context import DistContext

__all__ = ["METHODS", "layer_time", "inter_node_overhead", "e2e_model_time"]


def layer_time(model: ModelConfig, method: str, world: int = 8,
               seed: int = 0, spec: HardwareSpec | None = None) -> float:
    """Simulated seconds for one transformer layer."""
    kwargs = {} if spec is None else {"spec": spec}
    cfg = SimConfig(world_size=world, execute_numerics=False, seed=seed,
                    **kwargs)
    ctx = DistContext.create(cfg)
    build_layer(ctx, model, method)
    return ctx.run()


def inter_node_overhead(model: ModelConfig, world: int = 8) -> float:
    """Per-layer cross-node synchronization cost (both systems pay it)."""
    cfg = SimConfig(world_size=world)
    nic_bw = cfg.spec.inter_node_bandwidth
    # exchange one activation-row block of metadata + sync round trips
    sync_bytes = model.hidden * model.batch * 2.0 * 64
    return 4 * cfg.spec.inter_node_latency + sync_bytes / nic_bw


def e2e_model_time(model: ModelConfig, method: str, world: int = 8,
                   n_nodes: int = 1, seed: int = 0,
                   spec: HardwareSpec | None = None) -> float:
    """Simulated seconds for a full forward pass of the model."""
    per_layer = layer_time(model, method, world=world, seed=seed, spec=spec)
    if n_nodes > 1:
        per_layer += inter_node_overhead(model, world)
    return per_layer * model.n_layers
