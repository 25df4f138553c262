#!/usr/bin/env python
"""Layering lint for the decomposed LPM.

``repro.core.lpm`` used to be a god-class owning transport, RPC,
routing, and gather machinery in one file.  That machinery now lives in
dedicated layer modules, and this lint keeps the decomposition from
eroding:

1. ``lpm.py`` stays a coordinator: at most ``LPM_MAX_LINES`` lines.
2. ``lpm.py`` imports only from its allowlist — in particular it must
   never again import ``repro.netsim.stream`` or ``repro.core.dgram``
   (sockets belong to the transport layer) or ``repro.core.routing``
   (the route cache belongs to the router layer).
3. The layer modules never import ``repro.core.lpm`` — the layering is
   one-directional; layers talk to the LPM only through the instance
   injected at construction.
4. ``rpc`` / ``router`` / ``gather`` never import the socket layers
   either; only ``transport`` touches streams and datagrams.

The simulator substrate gets its own rules:

5. ``repro.netsim`` is the bottom layer: no module in it may import
   upward (``repro.core``, ``repro.unixsim``, ``repro.tracing``, ...).
6. No module under ``repro.netsim`` imports ``multiprocessing``: the
   simulator is one single-threaded event loop (``docs/NETSIM.md``,
   "Why there is no parallel simulator").

The backend abstraction (``repro.core.fabric``) adds its own rules:

7. **No module in ``repro.core`` imports ``repro.netsim``, ever.**
   The protocol stack sees backends only through the fabric contract;
   the one adapter binding netsim to that contract lives in
   ``netsim/fabric.py`` (below the seam, duck-typed).  This is the
   rule that keeps the same stack runnable over real sockets.
8. Real-network primitives stay in their backends: ``asyncio`` /
   ``socket`` / ``selectors`` may be imported only by ``repro.realnet``
   (and ``socket`` by ``repro.localos``, which names real hosts).  The
   simulator, the protocol stack, and the tools stay loadable — and
   deterministic — without ever touching a socket API.
9. ``repro.realnet`` never imports ``repro.netsim``: the two backends
   are siblings and must not entangle.  (The shared service-name
   constants live in ``repro.unixsim.inetd``, which realnet may use.)

The real backend reads the kernel's process table in one place:

10. Only ``repro.localos.procfs`` passes a ``/proc...`` path — a string
    literal, an f-string or a ``%``-format — to ``open``, ``os.open``,
    ``os.listdir`` or ``os.scandir``.  Its scan reads only the
    processes new since the previous one; a second reader elsewhere
    would quietly pay for every process on the machine again.
    (Docstrings and comments mentioning ``/proc`` are not calls.)

Run from the repo root::

    python tools/check_layering.py

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List, Sequence, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORE = os.path.join(REPO_ROOT, "src", "repro", "core")
CORE_PACKAGE = "repro.core"
NETSIM = os.path.join(REPO_ROOT, "src", "repro", "netsim")
NETSIM_PACKAGE = "repro.netsim"
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
REALNET = os.path.join(SRC_ROOT, "realnet")

#: Real-network primitives; only the packages named in
#: :data:`NETWORK_API_ALLOWED` may import them (rule 8).
NETWORK_APIS = ("asyncio", "socket", "selectors", "ssl")

#: package (relative to ``repro``) -> network APIs it may import.
NETWORK_API_ALLOWED = {
    "realnet": ("asyncio", "socket", "selectors", "ssl"),
    "localos": ("socket",),
}

#: Packages above netsim in the layer diagram (DESIGN.md §6); nothing
#: in the simulator substrate may import them.
NETSIM_UPWARD = ("repro.core", "repro.unixsim", "repro.tracing",
                 "repro.baselines", "repro.localos", "repro.bench",
                 "repro.cli")

#: Raised from 600 to 660 when the sparse-overlay work added
#: cache-first LOCATE (probe / flood split) and the tree/topology
#: dispatch rows to the coordinator (the mechanisms themselves live in
#: ``spantree.py`` / ``topology.py``); lowered to 636 when the facades
#: nothing called went.
LPM_MAX_LINES = 636

#: The one module allowed to open /proc (rule 10), relative to
#: ``src/repro``.
PROCFS_MODULE = os.path.join("localos", "procfs.py")

#: Calls that open a path or list a directory (rule 10).
PATH_CALLS = ("open", "os.open", "os.listdir", "os.scandir")

#: The modules extracted out of the god-class.  None may import lpm.
LAYER_MODULES = ("transport", "rpc", "router", "gather",
                 "processtable", "toolservice", "spantree", "topology",
                 "circuitpool")

#: Modules that must not touch the socket layers (transport owns them).
SOCKET_FREE_MODULES = ("rpc", "router", "gather", "spantree", "topology")
SOCKET_LAYERS = ("repro.netsim.stream", "repro.core.dgram")

#: Every import prefix lpm.py may use.  Anything else is the god-class
#: growing back; move the code into the owning layer instead.
LPM_ALLOWED_PREFIXES = (
    "__future__",
    "typing",
    "repro.errors",
    "repro.ids",
    "repro.latency",
    "repro.perf",
    "repro.tracing.events",
    "repro.unixsim.process",
    "repro.util",
    "repro.core.broadcast",
    "repro.core.control",
    "repro.core.dispatcher",
    "repro.core.gather",
    "repro.core.messages",
    "repro.core.processtable",
    "repro.core.recovery",
    "repro.core.router",
    "repro.core.rpc",
    "repro.core.spantree",
    "repro.core.toolservice",
    "repro.core.topology",
    "repro.core.transport",
)


def module_imports(path: str, package: str) -> Set[str]:
    """Absolute dotted names imported anywhere in the file.

    Relative imports are resolved against ``package`` (the package the
    file lives in).  ``from X import y`` contributes both ``X`` and
    ``X.y`` so submodule imports are caught either way they are spelt.
    """
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                kept = parts[:len(parts) - node.level + 1]
                base = ".".join(kept)
                if node.module:
                    base = "%s.%s" % (base, node.module) if base \
                        else node.module
            else:
                base = node.module or ""
            if base:
                found.add(base)
            for alias in node.names:
                found.add("%s.%s" % (base, alias.name) if base
                          else alias.name)
    return found


def _is_proc_path(node: ast.AST) -> bool:
    """Whether ``node`` spells a ``/proc...`` path: a string literal,
    an f-string or a ``%``-format whose text starts with ``/proc``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        node = node.left
    elif isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return isinstance(node, ast.Constant) and \
        isinstance(node.value, str) and node.value.startswith("/proc")


def proc_opens(source: str) -> List[int]:
    """Line numbers of the calls in ``source`` that pass a ``/proc``
    path to one of :data:`PATH_CALLS`."""
    lines: List[int] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            name = "%s.%s" % (func.value.id, func.attr)
        else:
            continue
        arguments = node.args[:1] + [kw.value for kw in node.keywords]
        if name in PATH_CALLS and any(map(_is_proc_path, arguments)):
            lines.append(node.lineno)
    return sorted(lines)


def _matches(name: str, prefixes: Sequence[str]) -> bool:
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)


def check() -> List[str]:
    errors: List[str] = []

    # Rule 1: line cap on the coordinator.
    lpm_path = os.path.join(CORE, "lpm.py")
    with open(lpm_path, "r", encoding="utf-8") as handle:
        n_lines = sum(1 for _ in handle)
    if n_lines > LPM_MAX_LINES:
        errors.append("lpm.py is %d lines (cap %d): the coordinator is "
                      "growing back into a god-class" %
                      (n_lines, LPM_MAX_LINES))

    # Rule 2: lpm.py import allowlist.
    for name in sorted(module_imports(lpm_path, CORE_PACKAGE)):
        if not _matches(name, LPM_ALLOWED_PREFIXES):
            errors.append("lpm.py imports %r, which is outside the "
                          "coordinator allowlist" % (name,))

    # Rules 3 and 4: the layers stay below the coordinator.
    for module in LAYER_MODULES:
        path = os.path.join(CORE, "%s.py" % module)
        imports = module_imports(path, CORE_PACKAGE)
        for name in sorted(imports):
            if _matches(name, ("repro.core.lpm",)):
                errors.append("%s.py imports %r: layers must not import "
                              "upward into the coordinator" %
                              (module, name))
            if module in SOCKET_FREE_MODULES and \
                    _matches(name, SOCKET_LAYERS):
                errors.append("%s.py imports %r: only the transport "
                              "layer may touch sockets" % (module, name))

    # Rules 5 and 6: the simulator substrate stays at the bottom.
    for filename in sorted(os.listdir(NETSIM)):
        if not filename.endswith(".py"):
            continue
        imports = module_imports(os.path.join(NETSIM, filename),
                                 NETSIM_PACKAGE)
        for name in sorted(imports):
            if _matches(name, NETSIM_UPWARD):
                errors.append("netsim/%s imports %r: netsim is the "
                              "bottom layer and must not import upward"
                              % (filename, name))
            if _matches(name, ("multiprocessing",)):
                errors.append("netsim/%s imports multiprocessing: the "
                              "simulator is single-threaded"
                              % (filename,))

    # Rule 7: the protocol stack never reaches below the fabric seam.
    for filename in sorted(os.listdir(CORE)):
        if not filename.endswith(".py"):
            continue
        imports = module_imports(os.path.join(CORE, filename),
                                 CORE_PACKAGE)
        for name in sorted(imports):
            if _matches(name, ("repro.netsim",)):
                errors.append("core/%s imports %r: the protocol stack "
                              "must depend only on the fabric contract "
                              "(repro.core.fabric), never on a backend"
                              % (filename, name))

    # Rules 8 and 10: real-network primitives confined to their
    # backends, /proc to procfs.
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        relative = os.path.relpath(dirpath, SRC_ROOT)
        top = "" if relative == "." else relative.split(os.sep)[0]
        allowed = NETWORK_API_ALLOWED.get(top, ())
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            package = "repro" if relative == "." else \
                "repro." + relative.replace(os.sep, ".")
            imports = module_imports(os.path.join(dirpath, filename),
                                     package)
            for name in sorted(imports):
                if _matches(name, NETWORK_APIS) and \
                        not _matches(name, allowed):
                    errors.append(
                        "%s imports %r: real-network APIs are confined "
                        "to repro.realnet (socket also to repro."
                        "localos)" % (os.path.join(
                            relative, filename).lstrip("./"), name))
            module = os.path.normpath(os.path.join(relative, filename))
            if module == PROCFS_MODULE:
                continue
            with open(os.path.join(dirpath, filename), "r",
                      encoding="utf-8") as handle:
                for line in proc_opens(handle.read()):
                    errors.append(
                        "%s:%d opens a /proc path: only repro.localos."
                        "procfs reads /proc" % (module, line))

    # Rule 9: the backends stay siblings.
    for filename in sorted(os.listdir(REALNET)):
        if not filename.endswith(".py"):
            continue
        imports = module_imports(os.path.join(REALNET, filename),
                                 "repro.realnet")
        for name in sorted(imports):
            if _matches(name, ("repro.netsim",)):
                errors.append("realnet/%s imports %r: the backends must "
                              "not entangle" % (filename, name))
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print("layering: %s" % error)
    if errors:
        return 1
    print("layering: ok (lpm.py and %d layer modules clean)" %
          len(LAYER_MODULES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
