"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and which submodule
defines it, and imports nothing: ``import repro.core`` costs one dict,
and ``from repro import BufferManager`` imports exactly the modules
``BufferManager`` needs, on that first read.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``; ``exports`` maps a submodule to the names it
    re-exports."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value  # later reads never come back here
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, list(origin)
