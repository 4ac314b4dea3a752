"""Declarative registry: kernel families and the implementation table.

One :func:`register_family` call from a kernel family's own module wires
it into every layer that once took a hand-edit:

* the static analyzer (``repro.analyze``) records ``analyze_plans``
  from the family's own launcher, checks its ``kernels`` and prints its
  ``doc`` beside a native (``tile_ir=False``) plan,
* its table entry's ``retune`` hook is its task at a figure table's
  config: the one hook the paper-table sweeps tune and, on a TileLink
  entry, the TileLink-tuned column and the shipped warm cache look up,
* ``slot``/``launch`` make the family's launcher ``method``'s entry in
  the implementation table, so a figure column and a layer method,
* the ``--list`` manifest shows all of the above.

The implementation table holds the one launch of each op slot
(:data:`SLOTS`) under each method (:data:`METHODS`, the figure columns in
order; a family may add one), registered from its own module:
:func:`register_family` for a kernel family, :func:`register_impl` for a
baseline or a composed layer.  Methods with a serving name form the layer
and serving ``method`` axis.  "TileLink-tuned" registers nothing: it runs
TileLink's entries on retuned configs (:func:`launches`).

A slot's entries share one signature, ``fn(ctx, cfg, *routing,
*operands, tag=)``; the caller omits ``tag`` to keep the entry's labels.
:data:`SLOTS` states each slot's config and the operands its caller
allocates, and :func:`alloc_operands` / :func:`slot_builder` allocate
them, so no caller writes that layout again.  The MoE slots take
``routing(block_m)``, the router's assignment at a row tile, and their
entries allocate the expert stacks and grouped rows, whose layouts
differ by method.

:func:`discover` imports every module under ``repro.kernels`` and
``repro.baselines`` once, and each registers itself at import time (a
family elsewhere, e.g. in an example script, calls :func:`register_family`
directly).  Module-scope imports here are restricted to the stdlib plus
``repro.errors`` so any layer can import the registry without cycles.

CLI::

    python -m repro.registry --list [--json]
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RegistryError

__all__ = [
    "BASE_SERVE_METHODS",
    "Impl",
    "KernelFamily",
    "METHODS",
    "SLOTS",
    "alloc_operands",
    "discover",
    "families",
    "get_family",
    "gemm_entry",
    "get_impl",
    "launches",
    "main",
    "register_family",
    "register_impl",
    "serve_method",
    "serve_method_names",
    "slot_builder",
]

F16, F32 = "float16", "float32"

#: The op slots of the implementation table, each with the operands its
#: caller allocates at config ``c`` (the class named beside it) and world
#: size ``w``, in launch order: ``(name, shape, dtype)``, or a bare name
#: for a buffer that each method's entry allocates itself.
SLOTS: dict[str, Callable[[Any, int], tuple]] = {
    # AgGemmConfig
    "ag_gemm": lambda c, w: (("x", (c.m // w, c.k), F16),
                             ("w", (c.k, c.n), F16), ("y", (c.m, c.n), F16)),
    # GemmRsConfig
    "gemm_rs": lambda c, w: (("x", (c.m, c.k), F16), ("w", (c.k, c.n), F16),
                             ("y", (c.m // w, c.n), F32)),
    # MoeConfig, after routing
    "ag_moe": lambda c, w: (("x", (c.m // w, c.h), F16), "w1", "g"),
    "moe_rs": lambda c, w: ("g", "w2", ("y", (c.m // w, c.h), F32)),
    # AgAttentionConfig
    "attention": lambda c, w: tuple(
        (name, (c.seq_len // w, c.width), F32 if name == "o" else F16)
        for name in "qkvo"),
    # MlpConfig
    "mlp": lambda c, w: (("x", (c.m // w, c.h), F16),
                         ("w1", (c.h, c.i_shard(w)), F16),
                         ("w2", (c.i_shard(w), c.h), F16),
                         ("y", (c.m // w, c.h), F32)),
    # MoeConfig, after routing
    "moe_layer": lambda c, w: (("x", (c.m // w, c.h), F16), "w1", "w2",
                               ("y", (c.m // w, c.h), F32)),
}

#: the figure methods in column order, each with its serving name or None
METHODS: dict[str, str | None] = {
    "cuBLAS+NCCL": "torch", "CUTLASS+NCCL": None, "Async-TP": None,
    "FLUX": None, "vLLM-Op": None, "Torch": None, "RingAttn": None,
    "TileLink": "tilelink", "TileLink-tuned": "tilelink-tuned",
}

#: Serving methods every model variant supports without a family
#: registration; the shipped latency table covers exactly these.
BASE_SERVE_METHODS = tuple(s for s in METHODS.values() if s)


@dataclass(frozen=True)
class Impl:
    """One entry of the implementation table."""

    #: the launch, in its slot's signature
    launch: Callable[..., Any]
    #: ``retune(cfg, *, world, spec) -> TuneTask``, the tune task at
    #: ``cfg``'s shape: the paper-table sweeps tune it, and on a TileLink
    #: entry "TileLink-tuned" looks its winner up
    retune: Callable[..., Any] | None = None
    #: ``module:lineno`` of the registering call
    provenance: str = ""


@dataclass(frozen=True)
class KernelFamily:
    """Everything the stack needs to know about one overlapped-kernel family."""

    #: registry key; also the tuner kernel name and analyzer family name
    name: str
    #: zero-arg factory -> analyzer ``(plan name, world, build)`` entries;
    #: ``build(ctx)`` allocates tiny inputs and calls the family's launcher
    analyze_plans: Callable[[], list]
    #: ``@kernel`` entry points (empty only for native, non-tile-IR families)
    kernels: tuple = ()
    #: False for natively-simulated families with no tile IR to analyze
    tile_ir: bool = True
    #: ``(slot, method)`` of the family's implementation-table entry, if any
    entry: tuple[str, str] | None = None
    #: the serving method this family adds, if any
    serve: str | None = None
    #: one-line description
    doc: str = ""
    #: ``module:lineno`` of the register_family() call (filled automatically)
    provenance: str = ""


_REGISTRY: dict[str, KernelFamily] = {}
_IMPLS: dict[tuple[str, str], Impl] = {}
_discovered = False


def _provenance() -> str:
    caller = sys._getframe(2)
    return f"{caller.f_globals.get('__name__', '?')}:{caller.f_lineno}"


def _claim(slot: str, method: str, serve: str | None = None) -> None:
    """Refuse an unknown slot, or a pair or serving name already taken."""
    if slot not in SLOTS:
        raise RegistryError(f"unknown op slot {slot!r}; slots: "
                            f"{', '.join(SLOTS)}")
    if (slot, method) in _IMPLS:
        raise RegistryError(f"{slot!r} under {method!r} is already registered "
                            f"(from {_IMPLS[slot, method].provenance})")
    if serve is not None and (method in METHODS or serve in METHODS.values()):
        raise RegistryError(f"method {method!r} or serving method {serve!r} "
                            f"is already registered")


def register_impl(slot: str, method: str, launch: Callable[..., Any]) -> None:
    """Register ``launch`` as ``method``'s ``slot`` entry (a baseline or a
    composed layer); a pair already taken raises, naming its origin."""
    _claim(slot, method)
    _IMPLS[slot, method] = Impl(launch, provenance=_provenance())
    METHODS.setdefault(method, None)


def alloc_operands(ctx: Any, slot: str, cfg: Any, prefix: str = ""
                   ) -> list[str]:
    """Allocate ``slot``'s caller-side operands at ``cfg`` on ``ctx``'s
    world, each named ``prefix`` + its table name; return every operand's
    name in launch order."""
    names = []
    for op in SLOTS[slot](cfg, ctx.world_size):
        name = prefix + (op if isinstance(op, str) else op[0])
        if not isinstance(op, str):
            ctx.alloc(name, *op[1:], fill=None)
        names.append(name)
    return names


def slot_builder(slot: str, launch: Callable[..., Any], cfg: Any, *routing,
                 **kw) -> Callable[[Any], Any]:
    """A fresh-context builder running ``launch(ctx, cfg, *routing,
    *operands, **kw)`` on newly allocated ``slot`` operands."""
    return lambda ctx: launch(ctx, cfg, *routing,
                              *alloc_operands(ctx, slot, cfg), **kw)


def gemm_entry(fn: Callable[..., Any], *tiles: str) -> Callable[..., Any]:
    """``fn(ctx, m, n, k, *names, **kw)`` as an ``ag_gemm``/``gemm_rs``
    entry, passing the config's ``tiles`` fields by keyword."""
    return lambda ctx, cfg, *names, **kw: fn(
        ctx, cfg.m, cfg.n, cfg.k, *names,
        **{tile: getattr(cfg, tile) for tile in tiles}, **kw)


def register_family(
    *,
    name: str,
    analyze_plans: Callable | None = None,
    kernels: tuple = (),
    tile_ir: bool = True,
    slot: str | None = None,
    launch: Callable | None = None,
    retune: Callable | None = None,
    method: str = "TileLink",
    serve: str | None = None,
    doc: str = "",
) -> KernelFamily:
    """Validate and insert one :class:`KernelFamily`.

    With ``slot``, ``launch`` becomes ``method``'s entry for that slot,
    ``retune`` is the entry's tuning hook (:class:`Impl`), and a new
    ``method`` may take a ``serve`` name; without a ``slot``, any of the
    four names a missing table entry.  Raises
    :class:`~repro.errors.RegistryError` naming the missing piece when
    the record is incomplete; nothing is inserted on failure.
    """
    if not name or not isinstance(name, str):
        raise RegistryError("kernel family needs a non-empty string name")

    def bad(piece: str) -> RegistryError:
        return RegistryError(
            f"kernel family {name!r} is missing its {piece}; "
            f"register_family() needs every consumer hook to be provided")

    if name in _REGISTRY:
        raise RegistryError(
            f"kernel family {name!r} is already registered "
            f"(from {_REGISTRY[name].provenance})"
        )
    if not callable(analyze_plans):
        raise bad("analyze_plans factory (analyze_plans)")
    if tile_ir:
        if not kernels:
            raise bad("@kernel entry points (kernels)")
        for kdef in kernels:
            meta = getattr(kdef, "meta", None) or {}
            if "role" not in meta or "outputs" not in meta:
                kname = getattr(kdef, "name", repr(kdef))
                raise RegistryError(
                    f"kernel family {name!r}: kernel {kname!r} has no "
                    f"'role'/'outputs' meta annotations "
                    f"(set them via <kernel>.meta.update(...))"
                )
    if (slot is None) != (launch is None) or (slot is None and (
            serve or retune or method != "TileLink")):
        raise bad("table entry (slot + launch)")
    if slot is not None:
        _claim(slot, method, serve)

    family = KernelFamily(
        name=name, analyze_plans=analyze_plans,
        kernels=tuple(kernels), tile_ir=tile_ir,
        entry=None if slot is None else (slot, method), serve=serve,
        doc=doc, provenance=_provenance(),
    )
    _REGISTRY[name] = family
    if slot is not None:
        _IMPLS[slot, method] = Impl(launch, retune, family.provenance)
        METHODS.setdefault(method, serve)
    return family


def discover() -> None:
    """Import every ``repro.kernels`` module and the baselines once, so
    families and table entries self-register."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    pkg = importlib.import_module("repro.kernels")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"repro.kernels.{info.name}")
    importlib.import_module("repro.baselines")


def families() -> dict[str, KernelFamily]:
    """All registered families, keyed by name (triggers discovery)."""
    discover()
    return dict(_REGISTRY)


def get_family(name: str) -> KernelFamily:
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown kernel family {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        ) from None


def get_impl(slot: str, method: str) -> Impl:
    """``method``'s own entry for ``slot``."""
    discover()
    try:
        return _IMPLS[slot, method]
    except KeyError:
        raise RegistryError(f"no {slot!r} entry under {method!r}") from None


def launches(slot: str, resolve: Callable | None = None
             ) -> dict[str, Callable[..., Any]]:
    """Each method's launch for ``slot``, keyed by method in column order.

    With ``resolve`` (:func:`repro.tuner.warm.tuned_config`, its cache
    bound), "TileLink-tuned" launches TileLink's entry, if its family gave
    a ``retune`` hook, on ``resolve(retune, cfg, world=, spec=) or cfg``.
    """
    discover()
    base = _IMPLS.get((slot, "TileLink"))

    def tuned(ctx, cfg, *args, **kw):
        cfg = resolve(base.retune, cfg, world=ctx.world_size,
                      spec=ctx.machine.config.spec) or cfg
        return base.launch(ctx, cfg, *args, **kw)

    out = {}
    for method in METHODS:
        if (slot, method) in _IMPLS:
            out[method] = _IMPLS[slot, method].launch
        elif method == "TileLink-tuned" and resolve and base and base.retune:
            out[method] = tuned
    return out


def serve_method_names() -> tuple[str, ...]:
    """The serving ``method`` axis: base methods + family-added ones."""
    discover()
    return tuple(s for s in METHODS.values() if s)


def serve_method(name: str) -> str:
    """The method (figure column label) serving under ``name``."""
    discover()
    for method, serve in METHODS.items():
        if serve == name:
            return method
    raise RegistryError(f"unknown serving method {name!r}; available: "
                        f"{', '.join(serve_method_names())}")


# ---------------------------------------------------------------------------
# CLI: python -m repro.registry --list [--json]
# ---------------------------------------------------------------------------

def _manifest() -> dict:
    # lazy import: the analyzer sits above the registry in the layer stack
    from repro.analyze.registry import family_plans

    fams = []
    for fam in families().values():
        fams.append({
            "name": fam.name,
            "doc": fam.doc,
            "tile_ir": fam.tile_ir,
            "kernels": [k.name for k in fam.kernels],
            "plans": len(family_plans(fam)),
            "serve_method": fam.serve,
            "provenance": fam.provenance,
        })
    return {
        "families": fams,
        "impls": {method: {slot: impl.provenance
                           for (slot, m), impl in _IMPLS.items()
                           if m == method}
                  for method in METHODS},
        "serve_methods": list(serve_method_names()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.registry",
        description="inspect the kernel families and the implementation "
                    "table",
    )
    parser.add_argument("--list", action="store_true",
                        help="list families and each method's slots "
                             "(default action)")
    parser.add_argument("--json", action="store_true",
                        help="emit the manifest as JSON")
    args = parser.parse_args(argv)

    manifest = _manifest()
    if args.json:
        print(json.dumps(manifest, indent=2))
        return 0
    for fam in manifest["families"]:
        print(f"{fam['name']}: plans={fam['plans']} "
              f"kernels={len(fam['kernels'])} [{fam['provenance']}]")
    for method, slots in manifest["impls"].items():
        print(f"{method}: {', '.join(slots) or '(retuned TileLink)'}")
    print(f"serving methods: {', '.join(manifest['serve_methods'])}")
    return 0


if __name__ == "__main__":
    # ``python -m repro.registry`` executes this file as ``__main__`` while
    # the kernel modules register into the canonically-imported
    # ``repro.registry`` — delegate so both see the same registry.
    from repro.registry import main as _canonical_main

    sys.exit(_canonical_main())
