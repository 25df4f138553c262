"""Host discovery: name -> (address, port), shared through one file.

Real listeners bind to port 0 and let the kernel pick an ephemeral
port (no fixed-port collisions between test runs, no privileged
binds); the chosen address is then *published* here so other processes
can dial the host by name — the realnet stand-in for the name lookup
an internetwork would do over DNS.

Writes are atomic (temp file + ``os.replace``) so a reader never sees
a torn JSON document, and every mutation holds an ``flock`` on a
sidecar lock file across its read-modify-write so concurrent serve
processes publishing different hosts cannot lose each other's
entries.  (Replace alone is not enough: N hosts starting at once all
read the empty registry and the last replace wins — on a one-CPU
machine that race fires dependably.)  Readers never need the lock;
``os.replace`` keeps every read a complete document.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import RegistryError


class HostRegistry:
    """One shared registry file of live realnet listeners."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- reading ---------------------------------------------------------

    def read(self) -> Dict[str, Tuple[str, int]]:
        """The published entries; ``{}`` before any host publishes.

        Raises :class:`RegistryError` when the file exists but does
        not parse as a registry: every update reads before it writes,
        so reading it as empty would replace the other hosts' entries
        with the writer's own.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            return {host: (entry[0], int(entry[1]))
                    for host, entry in raw.items()}
        except FileNotFoundError:
            return {}
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise RegistryError("host registry %s is corrupt: %s"
                                % (self.path, exc)) from None

    def lookup(self, host: str) -> Optional[Tuple[str, int]]:
        return self.read().get(host)

    def wait_for(self, hosts: List[str], timeout_s: float = 15.0,
                 poll_s: float = 0.05) -> bool:
        """Block until every named host has published, or time out.

        A corrupt registry raises :class:`RegistryError` at once."""
        deadline = time.monotonic() + timeout_s
        while True:
            known = self.read()
            if all(host in known for host in hosts):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)

    # -- writing ---------------------------------------------------------

    def _write(self, entries: Dict[str, Tuple[str, int]]) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, temp_path = tempfile.mkstemp(dir=directory,
                                         prefix=".registry-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({host: list(addr)
                           for host, addr in sorted(entries.items())},
                          handle)
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def _locked_update(self, mutate: Callable[[Dict], None]) -> None:
        """Run one read-modify-write under an exclusive flock."""
        with open(self.path + ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                entries = self.read()
                mutate(entries)
                self._write(entries)
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def publish(self, host: str, address: str, port: int) -> None:
        self._locked_update(
            lambda entries: entries.__setitem__(host, (address, port)))

    def withdraw(self, host: str) -> None:
        self._locked_update(lambda entries: entries.pop(host, None))

    def prune(self, hosts: List[str]) -> List[str]:
        """Withdraw several entries in one locked update; returns the
        names actually removed.  The fast-recovery playbook uses this
        to clear entries ``repro doctor`` flagged as stale (published
        by a serve process that died without withdrawing)."""
        removed: List[str] = []

        def mutate(entries: Dict) -> None:
            for host in hosts:
                if entries.pop(host, None) is not None:
                    removed.append(host)

        self._locked_update(mutate)
        return removed

    def remove_files(self) -> None:
        """Delete the registry and its lock file (end of a fleet)."""
        for path in (self.path, self.path + ".lock"):
            try:
                os.unlink(path)
            except OSError:
                pass
