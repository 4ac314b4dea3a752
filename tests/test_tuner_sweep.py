"""Tests for the multi-shape sweep driver and the extended kernel registry.

Covers the PR's acceptance scenario: the registry includes the MoE and
attention kernels, and ``sweep()`` over >= 3 Table-4 MoE shapes completes
with a warm-cache rerun performing zero simulations (``from_cache=True``
on every shape).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    attention_sweep_tasks,
    mlp_sweep_tasks,
    moe_sweep_tasks,
    tuned_vs_paper,
)
from repro.kernels.ag_moe import AgMoeConfig, ag_moe_tune_task
from repro.kernels.attention import AgAttentionConfig, ag_attention_tune_task
from repro.kernels.moe_rs import MoeRsConfig, moe_rs_tune_task
from repro.kernels.ring_attention import ring_attention_tune_task
from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
from repro.registry import families
from repro.tuner import TuneCache, TunerError, tune
from repro.tuner.sweep import sweep

SMALL_WORLD = 4
#: small MoE problem most tests tune (fast per-candidate simulation)
SMALL_MOE = dict(m=1024, h=256, d=256, n_experts=4, topk=2)


def small_moe_task(**kw):
    return ag_moe_tune_task(SMALL_MOE["m"], SMALL_MOE["h"], SMALL_MOE["d"],
                            SMALL_MOE["n_experts"], SMALL_MOE["topk"],
                            world=SMALL_WORLD, **kw)


# ---------------------------------------------------------------------------
# registry: the whole kernel zoo is tunable
# ---------------------------------------------------------------------------

def test_registry_includes_moe_and_attention_kernels():
    assert {"ag_gemm", "gemm_rs", "ag_moe", "moe_rs", "ag_attention",
            "ring_attention"} <= set(families())
    moe_space = ag_moe_tune_task(8192, 2048, 192, 8, 2, world=8).space
    assert set(moe_space.axis_names) == {"block_m", "block_n", "block_k"}
    attn_space = ag_attention_tune_task(32, 128, 16384, world=8).space
    assert set(attn_space.axis_names) == {"block_q", "block_kv"}
    # the ring baseline shares the flash-tile axes
    ring_space = ring_attention_tune_task(32, 128, 16384, world=8).space
    assert ring_space.fingerprint() == attn_space.fingerprint()


def test_moe_and_attention_bounds_are_lower_bounds():
    """Pruner soundness for the newly registered kernels: the analytic
    bound must never exceed the simulated time."""
    from repro.bench.harness import run_builder

    tasks = (small_moe_task(),
             moe_rs_tune_task(1024, 256, 256, 4, 2, world=SMALL_WORLD),
             ag_attention_tune_task(4, 64, 4096, world=SMALL_WORLD),
             ring_attention_tune_task(4, 64, 4096, world=SMALL_WORLD))
    for task in tasks:
        for cand in list(task.space.candidates())[:3]:
            simulated = run_builder(task.make_builder(cand),
                                    world=SMALL_WORLD)
            assert task.bound(cand) <= simulated, (task.kernel, cand)


def test_moe_autotune_classmethods(tmp_path):
    """Both MoE tasks tune through one cache into their config classes."""
    cache = TuneCache(tmp_path / "cache.json")
    res1 = tune(small_moe_task(), world=SMALL_WORLD, cache=cache)
    assert res1.best_time <= res1.default_time
    assert isinstance(res1.best_config, AgMoeConfig)
    res1.best_config.validate(SMALL_WORLD)

    res2 = tune(moe_rs_tune_task(**SMALL_MOE, world=SMALL_WORLD),
                world=SMALL_WORLD, cache=cache)
    assert res2.best_time <= res2.default_time
    assert isinstance(res2.best_config, MoeRsConfig)

    # distinct router seeds must not alias in the cache
    res3 = tune(small_moe_task(router_seed=23), world=SMALL_WORLD,
                cache=cache)
    assert not res3.from_cache


def test_attention_autotune_both_kernels(tmp_path):
    cache = TuneCache(tmp_path / "cache.json")
    for make_task in (ag_attention_tune_task, ring_attention_tune_task):
        res = tune(make_task(4, 64, 4096, world=SMALL_WORLD),
                   world=SMALL_WORLD, cache=cache)
        assert res.best_time <= res.default_time
        assert isinstance(res.best_config, AgAttentionConfig)


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def test_sweep_rejects_empty_task_list():
    with pytest.raises(TunerError):
        sweep([], world=SMALL_WORLD)


def test_sweep_deduplicates_aliasing_tasks(tmp_path):
    """Two tasks resolving to the same cache key (same kernel, shape and
    space fingerprint) simulate once; the alias reuses the result."""
    cache = TuneCache(tmp_path / "cache.json")
    tasks = [("first", small_moe_task()), ("alias", small_moe_task())]
    report = sweep(tasks, world=SMALL_WORLD, cache=cache)
    first, alias = report.entries
    assert first.deduped_from is None and first.n_simulated > 0
    assert alias.deduped_from == "first" and alias.n_simulated == 0
    assert alias.result.best == first.result.best
    assert report.n_deduped == 1
    assert report.n_simulated == first.n_simulated


def test_sweep_dedup_progress_names_the_full_cache_key(tmp_path):
    """Regression: the dedup progress line claimed "same space fingerprint
    as X" although dedup keys on the *full* cache key (shape, world, spec
    and search signature included) — the message now says so and surfaces
    the shared key."""
    cache = TuneCache(tmp_path / "cache.json")
    tasks = [("first", small_moe_task()), ("alias", small_moe_task())]
    lines: list[str] = []
    report = sweep(tasks, world=SMALL_WORLD, cache=cache,
                   progress=lines.append)
    dedup_lines = [l for l in lines if "deduplicated" in l]
    assert len(dedup_lines) == 1
    # the corrected message: full cache key, not "space fingerprint"
    assert "space fingerprint" not in dedup_lines[0]
    assert "same cache key as first" in dedup_lines[0]
    assert report.entries[1].cache_key in dedup_lines[0]


def test_sweep_names_stay_unique():
    tasks = [small_moe_task(), small_moe_task()]
    report = sweep(tasks, world=SMALL_WORLD)
    names = [e.name for e in report.entries]
    assert len(set(names)) == 2
    assert report.entry(names[1]).deduped_from == names[0]


def test_sweep_report_rows_and_format(tmp_path):
    cache = TuneCache(tmp_path / "cache.json")
    tasks = moe_sweep_tasks(MOE_BENCHES[:1], world=8)
    report = sweep(tasks, world=8, cache=cache)
    rows = report.rows()
    assert [r["name"] for r in rows] == ["MoE-1/ag_moe", "MoE-1/moe_rs"]
    for row in rows:
        assert row["tuned_ms"] > 0
        assert row["speedup"] >= 1.0 - 1e-9
        assert isinstance(row["best"], dict)
    table = report.format("sweep test")
    assert "MoE-1/ag_moe" in table and "TOTAL" in table
    with pytest.raises(TunerError):
        report.entry("nonexistent")


def test_sweep_task_table_helpers():
    assert mlp_sweep_tasks([], world=8) == []
    attn = attention_sweep_tasks(ATTENTION_BENCHES[:1], world=8)
    assert len(attn) == len(ATTENTION_BENCHES[0].seq_lens)
    assert all(t.kernel == "ag_attention" for _, t in attn)
    with pytest.raises(ValueError):
        moe_sweep_tasks(MOE_BENCHES[:1], kernels=("bogus",), world=8)


def test_sweeps_reject_a_shape_of_another_table():
    """A paper-table sweep takes only its slot's table's shapes: an MoE
    shape used to sweep as an MLP one without a word, and an MLP shape
    died in the MoE sweep with a bare AttributeError."""
    with pytest.raises(ValueError, match="'MoE-1' .* the MLP table"):
        mlp_sweep_tasks(MOE_BENCHES[:1])
    with pytest.raises(ValueError, match="'MLP-1' .* the MoE table"):
        moe_sweep_tasks(MLP_BENCHES[:1])
    with pytest.raises(ValueError, match="'MLP-1' .* the MoE table"):
        tuned_vs_paper(MLP_BENCHES[0], kernel="ag_moe")


def test_format_prefers_dedup_label_over_cache(tmp_path):
    """Regression: a deduplicated entry whose leader was a persistent-cache
    hit used to be labelled ``cache`` (the provenance column then
    disagreed with ``n_deduped`` in the TOTAL row)."""
    cache = TuneCache(tmp_path / "cache.json")
    tasks = [("first", small_moe_task()), ("alias", small_moe_task())]
    sweep(tasks, world=SMALL_WORLD, cache=cache)        # warm the cache
    warm = sweep(tasks, world=SMALL_WORLD, cache=cache)

    first, alias = warm.entries
    assert first.result.from_cache and alias.deduped_from == "first"
    table = warm.format("provenance")
    assert "dedup<-first" in table
    assert warm.n_deduped == 1
    # exactly one line says cache (the leader), not two
    assert sum("| cache" in line for line in table.splitlines()) == 1


def test_rows_emit_null_not_nan_without_default_time(tmp_path):
    """Regression: a cache hit lacking ``default_time`` must emit
    ``default_ms``/``speedup`` as ``None`` (JSON ``null``) — never
    ``0.0``/``NaN``, which ``json.dump`` writes as a bare invalid token."""
    import json

    from repro.config import H800
    from repro.tuner import task_cache_key

    task = small_moe_task()
    cache = TuneCache(tmp_path / "cache.json")
    key = task_cache_key(task, world=SMALL_WORLD, spec=H800)
    # a hand-written / legacy entry: winner only, no default_time meta
    cache.put(key, {"block_m": 128, "block_n": 128, "block_k": 64}, 1e-4)

    report = sweep([("legacy", task)], world=SMALL_WORLD, cache=cache)
    row = report.rows()[0]
    assert report.entries[0].result.from_cache
    assert row["default_ms"] is None and row["speedup"] is None
    assert row["tuned_ms"] > 0

    def _reject(token):
        raise AssertionError(f"bare constant {token!r} in sweep JSON")

    payload = json.dumps(report.rows(), allow_nan=False)
    parsed = json.loads(payload, parse_constant=_reject)
    assert parsed[0]["default_ms"] is None

    # the human-readable table agrees: no fabricated 0.000 ms / nan cells
    entry_line = report.format("legacy").splitlines()[3]
    assert "nan" not in entry_line and "0.000" not in entry_line
    assert " - " in entry_line                  # the entry's default cell

    # and the CI validator accepts exactly this null form
    from benchmarks.validate_bench_json import validate_sweep_rows

    assert validate_sweep_rows(parsed) == []
    broken = [dict(parsed[0], default_ms=0.0)]       # the old 0.0/NaN shape
    assert any("null together" in e for e in validate_sweep_rows(broken))


def test_sweep_rows_validate_against_ci_schema(tmp_path):
    """A regular cold sweep's rows pass the strict sweep schema."""
    import json

    from benchmarks.validate_bench_json import validate_sweep_rows

    cache = TuneCache(tmp_path / "cache.json")
    tasks = [("first", small_moe_task()), ("alias", small_moe_task())]
    report = sweep(tasks, world=SMALL_WORLD, cache=cache)
    rows = json.loads(json.dumps(report.rows(), allow_nan=False))
    assert validate_sweep_rows(rows, min_rows=2) == []


# ---------------------------------------------------------------------------
# acceptance: Table-4 sweep with a zero-simulation warm rerun
# ---------------------------------------------------------------------------

def test_acceptance_table4_sweep_warm_rerun(tmp_path):
    """sweep() over >= 3 Table-4 MoE shapes; the warm-cache rerun must do
    zero simulations with ``from_cache=True`` on every shape."""
    cache = TuneCache(tmp_path / "sweep.json")
    tasks = moe_sweep_tasks(MOE_BENCHES[:3], kernels=("ag_moe",), world=8)
    assert len(tasks) >= 3

    cold = sweep(tasks, world=8, cache=cache, max_trials=1)
    assert cold.n_simulated > 0
    assert all(e.result.best_time <= e.result.default_time
               for e in cold.entries)

    warm = sweep(tasks, world=8, cache=cache, max_trials=1)
    assert warm.n_simulated == 0
    assert all(e.from_cache for e in warm.entries)
    assert all(e.result.from_cache for e in warm.entries)
    assert [e.result.best for e in warm.entries] == \
        [e.result.best for e in cold.entries]
