"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule makes ``import
repro.serve`` pay for world generation and the §6 analyses it never
runs.  :func:`lazy_exports` builds the module-level ``__getattr__``
that imports a re-exported name's submodule only when the name is first
read, then caches it in the package namespace.  The package keeps the
same imports under ``if TYPE_CHECKING:`` so type checkers and
``repro check`` still see where every name comes from.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, sources: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """The ``__getattr__`` of *package*, whose *sources* map a relative
    submodule name (``".pipeline"``) to the names it re-exports."""
    owners: Dict[str, str] = {
        name: module for module, names in sources.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
