"""Client-side session against a live realnet PPM.

A :class:`RealSession` is the realnet counterpart of the simulator's
``World`` *as seen by a tool*: it exposes ``.fabric`` (the attribute
``PPMClient`` actually uses) and a convenience ``.client``, so the
same tool code runs unmodified against real serve processes.

:func:`launch_hosts` spawns N ``repro serve`` OS processes sharing one
registry file and waits until all have published their ephemeral
ports — the one-call way to stand up a live PPM for demos and tests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from ..core.client import PPMClient
from ..errors import PPMError
from .fabric import AsyncioFabric
from .registry import HostRegistry


class RealSession:
    """One tool process's view of a live realnet PPM."""

    def __init__(self, registry_path: str, user: str,
                 host_name: str) -> None:
        self.registry = HostRegistry(registry_path)
        self.fabric = AsyncioFabric(self.registry, local_host=host_name)
        self.user = user
        self.host_name = host_name
        self.client = PPMClient(self, user, host_name)

    def close(self) -> None:
        self.client.close()
        self.fabric.close()

    def __enter__(self) -> "RealSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HostFleet:
    """N serve subprocesses sharing a registry; kills them on exit."""

    def __init__(self, registry_path: str,
                 processes: List[subprocess.Popen],
                 hosts: List[str], owns_registry: bool) -> None:
        self.registry_path = registry_path
        self.processes = processes
        self.hosts = hosts
        self._owns_registry = owns_registry

    def shutdown(self, grace_s: float = 5.0) -> None:
        """SIGTERM every serve process; escalate to SIGKILL after the
        grace period; remove the registry file if we created it."""
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + grace_s
        for process in self.processes:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._owns_registry:
            HostRegistry(self.registry_path).remove_files()

    def __enter__(self) -> "HostFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def launch_hosts(hosts: Sequence[str],
                 registry_path: Optional[str] = None,
                 budget_s: Optional[float] = 120.0,
                 wait_s: float = 30.0) -> HostFleet:
    """Spawn one ``repro serve`` process per host name and wait until
    every one has published its port.  ``budget_s`` is each serve
    process's own wall-clock bound — a crashed launcher cannot leave
    servers running forever.  Set
    ``REPRO_SERVE_LOG_DIR`` to keep each serve process's stderr
    (``serve-<host>.err``) for debugging."""
    owns_registry = registry_path is None
    if owns_registry:
        fd, registry_path = tempfile.mkstemp(prefix="ppm-registry-",
                                             suffix=".json")
        os.close(fd)
        os.unlink(registry_path)
    log_dir = os.environ.get("REPRO_SERVE_LOG_DIR")
    processes = []
    for host in hosts:
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", host, "--registry", registry_path]
        if budget_s is not None:
            argv += ["--budget-s", str(budget_s)]
        stderr = subprocess.DEVNULL if log_dir is None else open(
            os.path.join(log_dir, "serve-%s.err" % host), "w")
        processes.append(subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=stderr,
            env=dict(os.environ,
                     PYTHONPATH=_src_pythonpath())))
    fleet = HostFleet(registry_path, processes, list(hosts),
                      owns_registry)
    registry = HostRegistry(registry_path)
    deadline = time.monotonic() + wait_s
    while True:
        if all(host in registry.read() for host in hosts):
            return fleet
        dead = [(host, process.returncode)
                for host, process in zip(hosts, processes)
                if process.poll() is not None]
        if dead:
            fleet.shutdown()
            raise PPMError(
                "serve process(es) exited before publishing: %s"
                % (", ".join("%s (status %s)" % entry
                             for entry in dead),))
        if time.monotonic() >= deadline:
            known = sorted(registry.read())
            fleet.shutdown()
            raise PPMError("serve processes did not all publish "
                           "within %.1fs (registry has %r)"
                           % (wait_s, known))
        time.sleep(0.05)


def probe_fleet(registry_path: str,
                expected_hosts: Optional[Sequence[str]] = None,
                timeout_ms: float = 3000.0,
                fabric: Optional[AsyncioFabric] = None) -> dict:
    """Probe a live fleet for ``repro doctor`` — no LPM side effects.

    Dials every expected host's ``__status__`` service through the
    same :class:`AsyncioFabric` the protocol stack uses, and scans
    ``/proc`` for marked orphans (PPM children whose serve process
    died).  Returns raw findings::

        {"registry": {host: (addr, port)},
         "statuses": {host: {"ok": True, "services": [...], ...}
                            | {"error": reason}},
         "orphans":  [{"pid": ..., "command": ...}, ...],
         "probed_at_ms": <fabric clock when the sweep started>}

    ``expected_hosts`` defaults to whatever the registry lists; pass
    the full fleet roster to also catch hosts that never published.
    ``fabric`` lets a long-lived caller (the watch loop) reuse one
    dial fabric across sweeps instead of paying a fresh event loop per
    probe; when omitted a private fabric is created and closed here.
    The backend-neutral reshaping lives in
    :func:`repro.ops.doctor.probe_fleet`.
    """
    from ..localos.procfs import find_marked_orphans
    from .node import STATUS_SERVICE

    registry = HostRegistry(registry_path)
    entries = registry.read()
    hosts = sorted(set(expected_hosts) | set(entries)) \
        if expected_hosts else sorted(entries)
    statuses = {}
    owns_fabric = fabric is None
    if owns_fabric:
        fabric = AsyncioFabric(registry, local_host="doctor")
    probed_at_ms = float(fabric.now_ms)
    try:
        for host in hosts:
            if host not in entries:
                statuses[host] = {"error": "not in registry"}
                continue
            result: dict = {}
            done: list = []

            def established(endpoint, result=result, done=done):
                def on_message(frame, ep):
                    if isinstance(frame, dict):
                        result.update(frame)
                    done.append(True)
                    ep.close()
                endpoint.on_message = on_message

            def failed(reason, result=result, done=done):
                result["error"] = reason
                done.append(True)

            fabric.connect("doctor", host, STATUS_SERVICE,
                           on_established=established,
                           on_failed=failed)
            fabric.run_until_true(lambda: bool(done),
                                  timeout_ms=timeout_ms)
            if not done:
                result = {"error": "status probe timed out"}
            elif "error" not in result and not result.get("ok"):
                result = {"error": "malformed status reply"}
            statuses[host] = result
    finally:
        if owns_fabric:
            fabric.close()
    return {"registry": entries, "statuses": statuses,
            "orphans": find_marked_orphans(),
            "probed_at_ms": probed_at_ms}


def _src_pythonpath() -> str:
    """A PYTHONPATH that lets ``-m repro`` import in the children even
    when the parent runs from a source checkout."""
    src = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")
