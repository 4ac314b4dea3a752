"""The ``tl`` namespace: what kernel authors call inside ``@kernel`` bodies.

These functions are *markers*: the AST frontend recognizes them by name and
translates calls into IR nodes.  Calling them outside a kernel raises, with
one exception — the pure scalar helpers (:func:`cdiv`, :func:`minimum`,
:func:`maximum`) also work as plain Python so reference implementations can
share code with kernels.

Vocabulary (mirrors Triton plus the paper's Table 3 primitives):

======================  =====================================================
tile creation           ``zeros(shape, dtype)``, ``full(shape, value, dtype)``
memory                  ``load(t, rows, cols)``, ``store(t, rows, cols, v)``,
                        ``load_vec(t, span)``, ``store_vec(t, span, v)``,
                        ``gather_rows(t, idx, cols)``, ``atomic_add(t, rows,
                        cols, v)``, ``scatter_add_rows(t, idx, cols, v)``
math                    ``dot(a, b, acc=None)``, ``exp``, ``log``, ``silu``,
                        ``gelu``, ``relu``, ``cast``, ``expand_dims``,
                        ``row_max``, ``row_sum``, ``maximum_tile``,
                        ``minimum_tile``
scalars                 ``block_id()``, ``num_blocks()``, ``cdiv``,
                        ``minimum``, ``maximum``, ``load_scalar(t, index)``
signal primitives       ``producer_tile_notify``, ``consumer_tile_wait``,
                        ``peer_tile_notify``, ``peer_tile_wait``
data primitives         ``tile_push_data``, ``tile_pull_data``
======================  =====================================================

A ``tl.<name>`` outside this vocabulary (:data:`VOCABULARY`) is a
:class:`~repro.errors.CompileError`.

The host-side primitives of Table 3 (``rank_notify``, ``rank_wait``,
``rank_copy_data``) are methods on :class:`repro.runtime.context.DistContext`
— they drive copy engines and streams from the CPU, not from inside kernels.
"""

from __future__ import annotations

from typing import Any


class constexpr:  # noqa: N801 - mirrors triton.language.constexpr
    """Annotation marking a kernel parameter as a compile-time constant."""


def _kernel_only(name: str) -> Any:
    raise RuntimeError(
        f"tl.{name} is only meaningful inside an @kernel-decorated function; "
        "the frontend compiles it to IR"
    )


# -- scalar helpers (usable both inside and outside kernels) -----------------


def cdiv(a: int, b: int) -> int:
    """Ceiling division."""
    return -(-a // b)


def minimum(a, b):
    return a if a < b else b


def maximum(a, b):
    return a if a > b else b


# -- markers ------------------------------------------------------------------

#: tile-producing tl functions: name -> produces a value
TILE_FNS = {
    "zeros", "full", "load", "load_vec", "gather_rows", "dot", "exp", "log",
    "silu", "gelu", "relu", "cast", "expand_dims", "row_max", "row_sum",
    "maximum_tile", "minimum_tile",
}

#: tl functions producing a *scalar* read from memory (dynamic tables)
SCALAR_LOAD_FNS = {"load_scalar"}

#: effect-only tl functions (no value produced)
EFFECT_FNS = {"store", "store_vec", "atomic_add", "scatter_add_rows"}

#: scalar tl functions usable in scalar expressions
SCALAR_FNS = {"block_id", "num_blocks", "cdiv", "minimum", "maximum"}

#: TileLink device-side primitives (Table 3); True if they produce a value
PRIMITIVES = {
    "producer_tile_notify": False,
    "consumer_tile_wait": False,
    "peer_tile_notify": False,
    "peer_tile_wait": False,
    "tile_push_data": False,
    "tile_pull_data": True,
}

#: every name the frontend accepts after ``tl.``
VOCABULARY = (TILE_FNS | SCALAR_LOAD_FNS | EFFECT_FNS | SCALAR_FNS
              | PRIMITIVES.keys())


def __getattr__(name: str) -> Any:
    """Any marker used at plain-Python runtime raises with a clear message."""
    if name in VOCABULARY:
        return lambda *a, **k: _kernel_only(name)
    raise AttributeError(f"module 'tl' has no attribute {name!r}")
