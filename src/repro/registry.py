"""Declarative kernel-family registry (the single registration point).

Adding an overlapped kernel family used to mean hand-edits in six layers:
``kernels/``, the tuner task lists, ``analyze/registry.py``'s plan table,
``bench/experiments.py``'s per-family builders, the warm-cache refresh
script and the serving ``method`` strings.  This module collapses all of
that into one declarative :class:`KernelFamily` record and a single
:func:`register_family` call made from the family's own module:

* the static analyzer (``repro.analyze``) records ``analyze_plans``
  from the family's own launcher, checks its ``kernels`` and prints its
  ``doc`` beside a native (``tile_ir=False``) plan,
* ``tune_task`` is the family's representative tuning task, and the
  sweep drivers and the warm-cache refresh (``sweep_entries``, over the
  ``sweep_category`` paper table when it is ``warm_cached``) tune it at
  paper shapes,
* the serving stack resolves extra ``method`` names via ``serve_method``,
* the ``--list`` manifest shows all of the above.

Discovery is import-driven: :func:`discover` imports every module under
``repro.kernels`` once, and each module registers itself at import time.
A family that lives elsewhere (e.g. an example script) can call
:func:`register_family` directly — consumers only ever see the registry.

Module-scope imports here are restricted to the stdlib plus
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
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RegistryError

__all__ = [
    "BASE_SERVE_METHODS",
    "KernelFamily",
    "ServeMethod",
    "discover",
    "families",
    "get_family",
    "main",
    "register_family",
    "resolve_serve_method",
    "serve_method_names",
]

#: Serving methods every model variant supports without any registration
#: (the historical ``models.transformer.METHODS`` tuple).
BASE_SERVE_METHODS = ("torch", "tilelink", "tilelink-tuned")


@dataclass(frozen=True)
class ServeMethod:
    """An extra entry on the serving ``method`` axis.

    ``base`` names the built-in method whose layer construction is reused;
    ``op_overrides`` swaps individual op slots (``"ag_gemm"``/``"gemm_rs"``)
    for the family's own launcher, with signature
    ``fn(ctx, m, n, k, x, w, out, *, tag, warm=None)``.  Registered
    methods stay out of the shipped latency table, which covers
    :data:`BASE_SERVE_METHODS` only.
    """

    name: str
    base: str = "tilelink"
    op_overrides: dict[str, Callable[..., Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class KernelFamily:
    """Everything the stack needs to know about one overlapped-kernel family."""

    #: registry key; also the tuner kernel name and analyzer family name
    name: str
    #: zero-arg factory -> ``TuneTask`` for a representative small shape
    tune_task: Callable[[], Any]
    #: zero-arg factory -> analyzer ``(plan name, world, build)`` entries;
    #: ``build(ctx)`` allocates tiny inputs and calls the family's launcher
    analyze_plans: Callable[[], list]
    #: ``@kernel`` entry points (empty only for native, non-tile-IR families)
    kernels: tuple = ()
    #: False for natively-simulated families with no tile IR to analyze
    tile_ir: bool = True
    #: which sweep table the family belongs to ("mlp" / "moe" / "attention")
    sweep_category: str | None = None
    #: ``fn(shape, *, world, spec, **kw) -> [(task_name, TuneTask)]``
    sweep_entries: Callable[..., list] | None = None
    #: True when the shipped warm cache holds this family's winners over
    #: its whole ``sweep_category`` paper table
    warm_cached: bool = False
    #: extra serving method contributed by this family
    serve_method: ServeMethod | None = None
    #: one-line description
    doc: str = ""
    #: ``module:lineno`` of the register_family() call (filled automatically)
    provenance: str = ""


_REGISTRY: dict[str, KernelFamily] = {}
_SERVE_METHODS: dict[str, ServeMethod] = {}
_discovered = False

#: (field, human-readable requirement) — validated before insertion so a
#: partial registration fails loudly, naming the missing piece.
_REQUIRED_CALLABLES = (
    ("tune_task", "tune_task factory"),
    ("analyze_plans", "analyze_plans factory"),
)


def register_family(
    *,
    name: str,
    tune_task: Callable | None = None,
    analyze_plans: Callable | None = None,
    kernels: tuple = (),
    tile_ir: bool = True,
    sweep_category: str | None = None,
    sweep_entries: Callable | None = None,
    warm_cached: bool = False,
    serve_method: ServeMethod | None = None,
    doc: str = "",
) -> KernelFamily:
    """Validate and insert one :class:`KernelFamily`.

    Raises :class:`~repro.errors.RegistryError` naming the missing piece
    when the record is incomplete; nothing is inserted on failure.
    """
    if not name or not isinstance(name, str):
        raise RegistryError("kernel family needs a non-empty string name")

    def bad(piece: str) -> RegistryError:
        return RegistryError(
            f"kernel family {name!r} is missing its {piece}; "
            f"register_family() needs every consumer hook (tuner, analyzer) "
            f"to be provided"
        )

    if name in _REGISTRY:
        raise RegistryError(
            f"kernel family {name!r} is already registered "
            f"(from {_REGISTRY[name].provenance})"
        )
    for fname, piece in _REQUIRED_CALLABLES:
        if not callable(locals()[fname]):
            raise bad(f"{piece} ({fname})")
    if warm_cached and (sweep_category is None or sweep_entries is None):
        raise bad("paper-table sweep (sweep_category + sweep_entries) "
                  "that warm_cached needs")
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
    if serve_method is not None:
        if not isinstance(serve_method, ServeMethod):
            raise bad("serve_method (expected a ServeMethod)")
        if serve_method.name in BASE_SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method "
                f"{serve_method.name!r} collides with a base method"
            )
        if serve_method.name in _SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method "
                f"{serve_method.name!r} is already registered"
            )
        if serve_method.base not in BASE_SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method base "
                f"{serve_method.base!r} is not one of {BASE_SERVE_METHODS}"
            )

    caller = sys._getframe(1)
    provenance = f"{caller.f_globals.get('__name__', '?')}:{caller.f_lineno}"
    family = KernelFamily(
        name=name, tune_task=tune_task, analyze_plans=analyze_plans,
        kernels=tuple(kernels), tile_ir=tile_ir,
        sweep_category=sweep_category, sweep_entries=sweep_entries,
        warm_cached=warm_cached, serve_method=serve_method,
        doc=doc, provenance=provenance,
    )
    _REGISTRY[name] = family
    if serve_method is not None:
        _SERVE_METHODS[serve_method.name] = serve_method
    return family


def discover() -> None:
    """Import every ``repro.kernels`` module once so families self-register."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    pkg = importlib.import_module("repro.kernels")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"repro.kernels.{info.name}")


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


def serve_method_names() -> tuple[str, ...]:
    """The serving ``method`` axis: base methods + registered extras."""
    discover()
    return tuple(BASE_SERVE_METHODS) + tuple(_SERVE_METHODS)


def resolve_serve_method(name: str) -> tuple[str, dict[str, Callable]]:
    """Resolve a method name to ``(base_method, op_overrides)``."""
    if name in BASE_SERVE_METHODS:
        return name, {}
    discover()
    method = _SERVE_METHODS.get(name)
    if method is None:
        raise RegistryError(
            f"unknown serving method {name!r}; available: "
            f"{', '.join(serve_method_names())}"
        )
    return method.base, dict(method.op_overrides)


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
            "sweep_category": fam.sweep_category,
            "warm_cached": fam.warm_cached,
            "serve_method": (fam.serve_method.name
                             if fam.serve_method else None),
            "provenance": fam.provenance,
        })
    return {
        "families": fams,
        "serve_methods": list(serve_method_names()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.registry",
        description="inspect the declarative kernel-family registry",
    )
    parser.add_argument("--list", action="store_true",
                        help="list registered families (default action)")
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
    print(f"serving methods: {', '.join(manifest['serve_methods'])}")
    return 0


if __name__ == "__main__":
    # ``python -m repro.registry`` executes this file as ``__main__`` while
    # the kernel modules register into the canonically-imported
    # ``repro.registry`` — delegate so both see the same registry.
    from repro.registry import main as _canonical_main

    sys.exit(_canonical_main())
