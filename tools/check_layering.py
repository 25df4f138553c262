#!/usr/bin/env python
"""Layering lint for the decomposed LPM.

``repro.core.lpm`` used to be a god-class owning transport, RPC,
routing, and gather machinery in one file.  That machinery now lives in
dedicated layer modules, and this lint keeps the decomposition from
eroding:

1. ``lpm.py`` stays a coordinator: at most ``LPM_MAX_LINES`` lines.
2. ``lpm.py`` imports only from its allowlist — in particular it must
   never again import ``repro.netsim.stream`` (sockets belong to the
   transport layer) or ``repro.core.routing`` (the route cache belongs
   to the router layer).
3. The layer modules (the recovery manager and the handler pool
   included) never import ``repro.core.lpm``, not even inside a
   function — the layering is one-directional; layers talk to the LPM
   only through the instance injected at construction.
4. ``rpc`` / ``router`` / ``gather`` never import the socket layer
   either; only ``transport`` touches streams.

The simulator substrate gets its own rules:

5. ``repro.netsim`` is the bottom layer: no module in it may import
   upward (``repro.core``, ``repro.unixsim``, ``repro.tracing``, ...).
6. No module under ``repro.netsim`` imports ``multiprocessing``: the
   simulator is one single-threaded event loop (``docs/NETSIM.md``,
   "Why there is no parallel simulator").

The backend abstraction (``repro.core.fabric``) adds its own rules:

7. **No module in ``repro.core`` imports ``repro.netsim`` or
   ``repro.unixsim``, ever** (``TYPE_CHECKING`` imports included).
   The protocol stack sees backends only through its two contracts:
   the fabric (``repro.core.fabric``; the one adapter binding netsim
   to it lives in ``netsim/fabric.py``, below the seam) and the host
   OS (``repro.core.hostos``, which the simulated kernel implements).
   This is the rule that keeps the same stack runnable over real
   sockets and real processes.
8. Real-network primitives stay in their backends: ``asyncio`` /
   ``socket`` / ``selectors`` may be imported only by ``repro.realnet``
   (and ``socket`` by ``repro.localos``, which names real hosts).  The
   simulator, the protocol stack, and the tools stay loadable — and
   deterministic — without ever touching a socket API.
9. ``repro.realnet`` never imports ``repro.netsim``: the two backends
   are siblings and must not entangle.  And a serve process loads only
   what it runs: at module level, ``repro.realnet`` and
   ``repro.localos`` import no ``repro.unixsim`` module, and nothing
   from ``repro.tracing`` or ``repro.ops``.
   (The shared service-name constants live in ``repro.ids``.)

The real backend reads the kernel's process table in one place:

10. Only ``repro.localos.procfs`` passes a ``/proc...`` path — a string
    literal, an f-string or a ``%``-format — to ``open``, ``os.open``,
    ``os.listdir`` or ``os.scandir``.  Its scan reads only the
    processes new since the previous one; a second reader elsewhere
    would quietly pay for every process on the machine again.
    (Docstrings and comments mentioning ``/proc`` are not calls.)

Bytes are charged only where a message crosses a link:

11. Only ``core/transport.py`` (a sibling send) calls
    ``message_size_bytes``.  A tool stream is host-local, so sizing a
    tool message charges nothing and costs one more encode.

The LPM takes its seams, not the world:

12. Outside ``lpm.install`` (the one place that knows the simulated
    ``World``), the LPM's modules (:data:`LPM_MODULES`) read no
    attribute named ``world`` or ``sim`` — the clock, timers and
    tracer are the fabric's — and on a ``host`` they read only the
    members ``repro.core.hostos.HostServices`` declares.  The lint
    reads that member list from the Protocol's own source, so the
    contract and the rule cannot drift apart.

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

#: The packages a serve process runs (rule 9), and the prefixes they
#: may not import at module level.
SERVE_PACKAGES = ("realnet", "localos")
SERVE_BANNED = ("repro.unixsim", "repro.tracing", "repro.ops")

#: The backends no ``repro.core`` module may import (rule 7).
CORE_BANNED = ("repro.netsim", "repro.unixsim")

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

#: ``lpm.py``'s length once the LPM-level datagram transport's
#: exactly-once cache and ``dgram`` facade left it: the coordinator may
#: shrink, not grow, unless a reason is written here.
LPM_MAX_LINES = 526

#: The one module allowed to open /proc (rule 10), relative to
#: ``src/repro``.
PROCFS_MODULE = os.path.join("localos", "procfs.py")

#: Calls that open a path or list a directory (rule 10).
PATH_CALLS = ("open", "os.open", "os.listdir", "os.scandir")

#: The one module that may call ``message_size_bytes`` (rule 11),
#: relative to ``src/repro``.
SIZING_MODULE = os.path.join("core", "transport.py")

#: The modules extracted out of the god-class.  None may import lpm.
LAYER_MODULES = ("transport", "rpc", "router", "gather",
                 "processtable", "toolservice", "recovery", "dispatcher")

#: The LPM's own modules (rule 12): the coordinator and its layers.
LPM_MODULES = ("lpm",) + LAYER_MODULES

#: The one function in ``lpm.py`` that may read the world (rule 12).
WORLD_FUNCTIONS = ("install",)

#: The names rule 12 forbids reading as an attribute.
WORLD_ATTRIBUTES = ("world", "sim")

#: The module and the class that declare what an LPM may read on its
#: host (rule 12).
HOSTOS_MODULE = os.path.join(CORE, "hostos.py")
HOST_CONTRACT = "HostServices"

#: Modules that must not touch the socket layers (transport owns them).
SOCKET_FREE_MODULES = ("rpc", "router", "gather")
SOCKET_LAYERS = ("repro.netsim.stream",)

#: Every import prefix lpm.py may use.  Anything else is the god-class
#: growing back; move the code into the owning layer instead.
LPM_ALLOWED_PREFIXES = (
    "__future__",
    "typing",
    "repro.errors",
    "repro.ids",
    "repro.latency",
    "repro.tracing.events",
    "repro.util",
    "repro.core.broadcast",
    "repro.core.control",
    "repro.core.dispatcher",
    "repro.core.gather",
    "repro.core.hostos",
    "repro.core.messages",
    "repro.core.processtable",
    "repro.core.recovery",
    "repro.core.router",
    "repro.core.rpc",
    "repro.core.toolservice",
    "repro.core.transport",
)


def _top_level(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """The statements of ``body`` that run at import: nested ``if``
    and ``try`` blocks included, ``if TYPE_CHECKING:`` and function
    and class bodies not."""
    found: List[ast.stmt] = []
    for node in body:
        found.append(node)
        if isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and
                    node.test.id == "TYPE_CHECKING"):
                found += _top_level(node.body)
            found += _top_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(handler.body for handler in node.handlers)):
                found += _top_level(block)
    return found


def module_imports(path: str, package: str,
                   top_level: bool = False) -> Set[str]:
    """Absolute dotted names imported anywhere in the file (only at
    import time with ``top_level``).

    Relative imports are resolved against ``package`` (the package the
    file lives in).  ``from X import y`` contributes both ``X`` and
    ``X.y`` so submodule imports are caught either way they are spelt.
    """
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found: Set[str] = set()
    nodes = _top_level(tree.body) if top_level else ast.walk(tree)
    for node in nodes:
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


def size_calls(source: str) -> List[int]:
    """Line numbers of the calls in ``source`` to ``message_size_bytes``,
    by bare name or as an attribute (``wire.message_size_bytes``)."""
    lines: List[int] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == "message_size_bytes":
            lines.append(node.lineno)
    return sorted(lines)


def _matches(name: str, prefixes: Sequence[str]) -> bool:
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)


def core_violations(path: str) -> List[str]:
    """Rule 7 for one ``repro.core`` module: every import of a backend,
    wherever in the file it is spelt."""
    return ["core/%s imports %r: the protocol stack must depend only on "
            "its contracts (repro.core.fabric, repro.core.hostos), never "
            "on a backend" % (os.path.basename(path), name)
            for name in sorted(module_imports(path, CORE_PACKAGE))
            if _matches(name, CORE_BANNED)]


def layer_violations(path: str, module: str) -> List[str]:
    """Rules 3 and 4 for one layer module: an import of the coordinator
    anywhere in the file, and (for the socket-free layers) of the
    socket layer."""
    errors: List[str] = []
    for name in sorted(module_imports(path, CORE_PACKAGE)):
        if _matches(name, ("repro.core.lpm",)):
            errors.append("%s.py imports %r: layers must not import "
                          "upward into the coordinator" % (module, name))
        if module in SOCKET_FREE_MODULES and _matches(name, SOCKET_LAYERS):
            errors.append("%s.py imports %r: only the transport layer may "
                          "touch sockets" % (module, name))
    return errors


def contract_members() -> Set[str]:
    """The members :data:`HOST_CONTRACT` declares in its source: its
    annotated attributes and its methods and properties."""
    with open(HOSTOS_MODULE, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=HOSTOS_MODULE)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == HOST_CONTRACT:
            members: Set[str] = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    members.add(item.name)
                elif isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    members.add(item.target.id)
            return members
    raise LookupError("%s declares no class %s" % (HOSTOS_MODULE,
                                                   HOST_CONTRACT))


def seam_violations(source: str, module: str,
                    host_members: Set[str]) -> List[str]:
    """Rule 12 for one LPM module: every read of ``.world`` or ``.sim``,
    and of a ``host`` member outside ``host_members``, except inside
    the functions named in :data:`WORLD_FUNCTIONS`."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and \
                node.name in WORLD_FUNCTIONS:
            exempt.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in exempt:
            continue
        owner = node.value
        owner_name = owner.id if isinstance(owner, ast.Name) else \
            owner.attr if isinstance(owner, ast.Attribute) else None
        if node.attr in WORLD_ATTRIBUTES:
            found.append((node.lineno, "%s.py:%d reads .%s: the LPM "
                          "reaches its machine through the fabric and "
                          "its host" % (module, node.lineno, node.attr)))
        elif owner_name == "host" and node.attr not in host_members:
            found.append((node.lineno, "%s.py:%d reads host.%s, which "
                          "%s does not declare" % (
                              module, node.lineno, node.attr,
                              HOST_CONTRACT)))
    return [error for _, error in sorted(found)]


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
        errors += layer_violations(os.path.join(CORE, "%s.py" % module),
                                   module)

    # Rule 12: the LPM reaches its machine only through its seams.
    host_members = contract_members()
    for module in LPM_MODULES:
        with open(os.path.join(CORE, "%s.py" % module), "r",
                  encoding="utf-8") as handle:
            errors += seam_violations(handle.read(), module, host_members)

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

    # Rule 7: the protocol stack never reaches below its seams.
    for filename in sorted(os.listdir(CORE)):
        if not filename.endswith(".py"):
            continue
        errors += core_violations(os.path.join(CORE, filename))

    # Rules 8, 10 and 11: real-network primitives confined to their
    # backends, /proc to procfs, sizing to the sibling senders.
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
            with open(os.path.join(dirpath, filename), "r",
                      encoding="utf-8") as handle:
                source = handle.read()
            if module != PROCFS_MODULE:
                for line in proc_opens(source):
                    errors.append(
                        "%s:%d opens a /proc path: only repro.localos."
                        "procfs reads /proc" % (module, line))
            if module != SIZING_MODULE:
                for line in size_calls(source):
                    errors.append(
                        "%s:%d calls message_size_bytes: only a message "
                        "crossing a link is sized" % (module, line))

    # Rule 9: the backends stay siblings, and a serve process loads
    # no simulator.
    for filename in sorted(os.listdir(REALNET)):
        if not filename.endswith(".py"):
            continue
        imports = module_imports(os.path.join(REALNET, filename),
                                 "repro.realnet")
        for name in sorted(imports):
            if _matches(name, ("repro.netsim",)):
                errors.append("realnet/%s imports %r: the backends must "
                              "not entangle" % (filename, name))
    for package in SERVE_PACKAGES:
        directory = os.path.join(SRC_ROOT, package)
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".py"):
                continue
            imports = module_imports(os.path.join(directory, filename),
                                     "repro." + package, top_level=True)
            for name in sorted(imports):
                if _matches(name, SERVE_BANNED):
                    errors.append(
                        "%s/%s imports %r at module level: a serve "
                        "process must not load the simulator"
                        % (package, filename, name))
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
