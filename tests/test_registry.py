"""The declarative kernel-family registry: completeness of every
registered record, loud failure on partial registrations, the
implementation table and its serving method axis, and the
``python -m repro.registry`` manifest.

The meta-test is the registry's contract: every family a consumer can
resolve must expose a working hook for *each* consumer — the analyzer
(plans recorded from its launcher) and, through its table entry, the
figure tables and layers — so a family can never be half-wired into the
stack.  Every table entry also runs once on its slot's operands.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analyze import analyze_registered
from repro.bench import experiments
from repro.bench.harness import run_builder
from repro.errors import RegistryError
from repro.kernels.ag_gemm import AgGemmConfig
from repro.kernels.attention import AgAttentionConfig
from repro.kernels.gemm_rs import GemmRsConfig
from repro.kernels.mlp import MlpConfig
from repro.kernels.moe_common import routing_memo
from repro.kernels.moe_layer import MoeConfig
from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
from repro.models.transformer import layer_row
from repro.registry import (
    BASE_SERVE_METHODS,
    METHODS,
    SLOTS,
    families,
    get_family,
    get_impl,
    launches,
    main as registry_main,
    register_family,
    register_impl,
    serve_method,
    serve_method_names,
    slot_builder,
)
from repro.serve.latency import resolve_latency_table


def test_all_shipped_families_registered():
    names = set(families())
    assert {"ag_gemm", "gemm_rs", "ag_moe", "moe_rs", "ag_attention",
            "ring_attention", "chunk_gemm_rs"} <= names
    assert len(names) >= 7


@pytest.mark.parametrize("name", sorted(families()))
def test_family_record_is_complete(name):
    """Every consumer hook resolves: this is the one test that makes a
    partial registration impossible to ship."""
    fam = get_family(name)
    assert fam.doc, "family needs a one-line doc"
    assert fam.provenance and ":" in fam.provenance

    # analyzer: plans recorded from the family's own launcher (a native
    # family gets one note plan)
    plans = [plan for plan, _report in analyze_registered([name])]
    assert plans, "family ships no analyzer plans"
    assert all(plan.family == name for plan in plans)

    # tile-IR families ship annotated kernel entry points
    if fam.tile_ir:
        assert fam.kernels
        for kdef in fam.kernels:
            assert kdef.meta.get("role") in ("producer", "consumer", "fused")
            assert "outputs" in kdef.meta
    # a table entry is the family's own: registered by the same call
    if fam.entry is not None:
        assert get_impl(*fam.entry).provenance == fam.provenance


@pytest.mark.parametrize("drop,piece", [
    ("analyze_plans", "analyze_plans factory"),
])
def test_partial_registration_raises_naming_the_piece(drop, piece):
    """A registration missing any consumer hook fails loudly, names the
    missing piece, and inserts nothing."""
    kwargs = dict(
        name="mutant_family", analyze_plans=lambda: [], tile_ir=False,
    )
    kwargs[drop] = None
    with pytest.raises(RegistryError, match=piece):
        register_family(**kwargs)
    assert "mutant_family" not in families()


def test_tile_ir_family_requires_annotated_kernels():
    kwargs = dict(name="mutant_family", analyze_plans=lambda: [])
    with pytest.raises(RegistryError, match="kernel entry points"):
        register_family(**kwargs)

    class FakeKernel:
        name = "k"
        meta = {}
    with pytest.raises(RegistryError, match="role"):
        register_family(**kwargs, kernels=(FakeKernel(),))
    assert "mutant_family" not in families()


def test_table_hook_without_a_table_entry_raises():
    """``retune``, a method and a serving name each describe a table
    entry; without a ``slot`` the record would silently drop them (a
    family whose ``retune`` no sweep can reach)."""
    methods = dict(METHODS)
    for hook in ({"retune": lambda cfg, **kw: None},
                 {"method": "Mutant"}, {"serve": "mutant"}):
        with pytest.raises(RegistryError, match="table entry"):
            register_family(
                name="mutant_family", analyze_plans=lambda: [],
                tile_ir=False, **hook,
            )
    assert "mutant_family" not in families()
    assert METHODS == methods


def test_duplicate_registration_names_the_incumbent():
    with pytest.raises(RegistryError,
                       match=r"already registered.*repro\.kernels\.ag_gemm"):
        register_family(
            name="ag_gemm", analyze_plans=lambda: [], tile_ir=False,
        )


def test_unknown_family_lists_the_registered_ones():
    with pytest.raises(RegistryError, match="unknown kernel family.*ag_gemm"):
        get_family("flash_decoding")


def test_serve_method_axis():
    names = serve_method_names()
    assert names[:3] == BASE_SERVE_METHODS
    assert "tilelink-chunk" in names
    # registered methods stay out of the shipped latency table
    table = resolve_latency_table()
    assert {key.split("|")[1] for key in table.keys()} == \
        set(BASE_SERVE_METHODS)


def test_resolve_serve_method():
    assert serve_method("tilelink") == "TileLink"
    assert serve_method("torch") == "cuBLAS+NCCL"
    # the chunk family's method holds its GEMM+RS entry and nothing else
    assert serve_method("tilelink-chunk") == "TileLink-chunk"
    assert [slot for slot in SLOTS
            if "TileLink-chunk" in launches(slot)] == ["gemm_rs"]
    with pytest.raises(RegistryError, match="unknown serving method"):
        serve_method("triton")


def test_serve_method_validation():
    kwargs = dict(
        name="mutant_family", analyze_plans=lambda: [], tile_ir=False,
        slot="gemm_rs", launch=lambda *a, **kw: None, method="Mutant",
    )
    for taken in ("torch", "tilelink-chunk"):
        with pytest.raises(RegistryError, match="already registered"):
            register_family(**kwargs, serve=taken)
    with pytest.raises(RegistryError, match="table entry"):
        register_family(**{**kwargs, "slot": None}, serve="mutant")
    assert "mutant_family" not in families()
    assert "Mutant" not in METHODS


# ---------------------------------------------------------------------------
# the implementation table
# ---------------------------------------------------------------------------

_TABLES = (
    ("ag_gemm", experiments.ag_gemm_builders(MLP_BENCHES[0])),
    ("gemm_rs", experiments.gemm_rs_builders(MLP_BENCHES[0])),
    ("mlp", experiments.mlp_builders(MLP_BENCHES[0])),
    ("ag_moe", experiments.moe_part1_builders(MOE_BENCHES[0])),
    ("moe_rs", experiments.moe_part2_builders(MOE_BENCHES[0])),
    ("moe_layer", experiments.moe_layer_builders(MOE_BENCHES[0])),
    ("attention", experiments.attention_builders(ATTENTION_BENCHES[0],
                                                 16384)),
)


@pytest.mark.parametrize("slot,columns", _TABLES, ids=[t[0] for t in _TABLES])
def test_every_column_is_one_table_entry(slot, columns):
    """Each label of the seven figure tables names one method, in the
    table's column order, backed by its one registered entry (the tuned
    column by TileLink's retunable one)."""
    assert list(columns) == [m for m in METHODS if m in columns]
    for method in columns:
        tuned = method == "TileLink-tuned"
        impl = get_impl(slot, "TileLink" if tuned else method)
        assert impl.retune is not None or not tuned, slot


#: a tiny world-2 config of each slot, with tiles dividing its shapes
_TINY = {
    "ag_gemm": AgGemmConfig(m=64, n=32, k=32, block_m=16, block_n=16,
                            block_k=16, block_mp=16, comm_blocks=2),
    "gemm_rs": GemmRsConfig(m=64, n=32, k=32, block_m=16, block_n=16,
                            block_k=16, block_mr=16, block_nr=32,
                            comm_blocks=2),
    "mlp": MlpConfig(m=64, h=32, i=64, block_m=16, block_n=16, block_k=16,
                     block_mr=16, block_nr=32),
    "attention": AgAttentionConfig(heads=2, head_dim=16, seq_len=256,
                                   block_q=64, block_kv=64),
    **dict.fromkeys(("ag_moe", "moe_rs", "moe_layer"), MoeConfig(
        m=64, h=32, i=64, n_experts=4, topk=2, block_m=16, block_n=16,
        block_k=16, block_mr=16, block_nr=32)),
}
_ENTRIES = [(slot, method) for slot in SLOTS for method in launches(slot)]


@pytest.mark.parametrize("slot,method", _ENTRIES,
                         ids=[f"{slot}/{method}" for slot, method in _ENTRIES])
def test_every_entry_runs_on_its_slot_operands(slot, method):
    """Each registered entry launches on the operands :data:`SLOTS` states
    for its slot, allocating the rest itself."""
    cfg = _TINY[slot]
    routing = ((routing_memo(cfg.m, cfg.n_experts, cfg.topk, 2),)
               if isinstance(cfg, MoeConfig) else ())
    t = run_builder(slot_builder(slot, get_impl(slot, method).launch, cfg,
                                 *routing), world=2)
    assert math.isfinite(t) and t > 0


def test_every_serving_method_is_one_row():
    """Each serving name names one method, and its layer row has exactly
    one launch per layer slot: the method's own entry, else TileLink's
    (an MLP composed over the row's halves)."""
    names = serve_method_names()
    assert len(set(names)) == len(names)
    assert len({serve_method(name) for name in names}) == len(names)
    for name in names:
        row = layer_row(name)
        assert sorted(row) == ["ag_gemm", "gemm_rs", "mlp", "moe_layer"]
        assert all(callable(launch) for launch in row.values())
    torch = layer_row("torch")
    for slot in ("ag_gemm", "gemm_rs", "mlp", "moe_layer"):
        assert torch[slot] is get_impl(slot, "cuBLAS+NCCL").launch
    assert layer_row("tilelink-chunk")["gemm_rs"] is \
        get_impl("gemm_rs", "TileLink-chunk").launch


def test_duplicate_impl_names_the_incumbent():
    """A (slot, method) pair is registered once: a second entry, from a
    baseline or a family, raises naming where the first came from, and
    inserts nothing."""
    incumbent = get_impl("gemm_rs", "TileLink")
    with pytest.raises(RegistryError,
                       match=r"already registered.*repro\.kernels\.gemm_rs"):
        register_impl("gemm_rs", "TileLink", lambda *a, **kw: None)
    with pytest.raises(RegistryError,
                       match=r"already registered.*repro\.baselines\.flux"):
        register_family(name="mutant_family", analyze_plans=lambda: [],
                        tile_ir=False, slot="mlp",
                        launch=lambda *a, **kw: None, method="FLUX")
    with pytest.raises(RegistryError, match="unknown op slot"):
        register_impl("all_to_all", "Mutant", lambda *a, **kw: None)
    assert get_impl("gemm_rs", "TileLink") is incumbent
    assert "mutant_family" not in families()
    assert "Mutant" not in METHODS


def test_cli_manifest_json(capsys):
    assert registry_main(["--list", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    by_name = {f["name"]: f for f in manifest["families"]}
    assert len(by_name) >= 7
    assert sum(f["plans"] for f in by_name.values()) >= 20
    for fam in by_name.values():
        assert fam["provenance"]
    chunk = by_name["chunk_gemm_rs"]
    assert chunk["serve_method"] == "tilelink-chunk"
    assert chunk["provenance"].startswith("repro.kernels.chunk_gemm_rs:")
    assert manifest["serve_methods"][:3] == list(BASE_SERVE_METHODS)


def test_cli_list_plain(capsys):
    assert registry_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "chunk_gemm_rs" in out
    assert "serving methods:" in out
