"""Package exports resolved on first access (PEP 562).

A package ``__init__`` declares which submodule defines each of its public
names instead of importing them all.  A submodule loads the first time one
of its names is read from the package, so importing one module of
:mod:`repro` loads that module's own imports and nothing else: the query
and serving path never pays for numpy or networkx.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".core.vtree"``) to the
    public names it defines.  The first read of any of them imports the
    submodule and binds all of its names on the package, so later reads
    are plain attribute lookups.  Binding them together also restores a
    name that a same-named submodule shadowed on import (``repro.core``'s
    ``factors`` function and ``repro.core.factors`` module).
    """
    where = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = where.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(sub, package)
        pkg = sys.modules[package]
        for n in exports[sub]:
            setattr(pkg, n, getattr(module, n))
        return getattr(module, name)

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | where.keys())

    return list(where), __getattr__, __dir__
