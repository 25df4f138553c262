"""Small shared utilities."""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Optional, Sequence


class Deferred:
    """A single-shot future for callback-style simulation code.

    ``then`` callbacks fire immediately if the value is already set,
    otherwise when :meth:`resolve` runs.  Resolution is idempotent: the
    first value wins (useful when a timeout races a reply).
    """

    def __init__(self) -> None:
        self._value = None
        self._resolved = False
        self._callbacks: List[Callable] = []

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self):
        return self._value

    def resolve(self, value) -> bool:
        """Set the value; returns False if already resolved."""
        if self._resolved:
            return False
        self._resolved = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)
        return True

    def then(self, callback: Callable) -> "Deferred":
        """Run ``callback(value)`` now or upon resolution."""
        if self._resolved:
            callback(self._value)
        else:
            self._callbacks.append(callback)
        return self


def format_table(headers: List[str], rows: List[List[str]],
                 title: Optional[str] = None) -> str:
    """Render a simple aligned text table (used by tools and benches)."""
    columns = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in columns)
              for i in range(len(headers))]

    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    for row in columns[1:]:
        parts.append(line(row))
    return "\n".join(parts)


def lazy_exports(package: str, table: Dict[str, Sequence[str]]):
    """PEP 562 exports for ``package``, loaded on first use.

    ``table`` maps each submodule (relative to ``package``) to the
    names the package exports from it.  Returns ``(__all__,
    __getattr__, __dir__)`` for the package to bind: importing the
    package loads none of the submodules, the first read of a name
    imports its submodule and caches the value in the package
    globals, and ``from package import *`` and ``dir(package)`` still
    list every export.
    """
    home = {name: module for module, names in table.items()
            for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = namespace[name] = getattr(
            importlib.import_module(home[name], package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
