"""The LPM's internal concurrency structure.

"The LPM is, itself, a multi-process program.  It consists of a main
dispatcher process, and some number of handler processes. ... These
handler processes may block while waiting for a response from a remote
process without interrupting the service of the LPM.  Since process
creation in UNIX is relatively expensive, processes that have handled a
request may be given further requests, rather than simply creating new
processes." (section 6)

Handlers are real processes in the simulated kernel (command
``lpm-handler``); acquiring one costs ``handler_reuse_ms`` when an idle
handler exists and ``handler_spawn_ms`` when one must be created.
Handlers beyond the configured pool size retire after use.
"""

from __future__ import annotations

from typing import List, Optional

from .hostos import ProcState


class Handler:
    """One handler process slot."""

    def __init__(self, proc) -> None:
        self.proc = proc
        self.busy = False
        self.served = 0


class HandlerPool:
    """Reusable handler processes owned by one LPM's dispatcher."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self._handlers: List[Handler] = []
        self.spawned = 0
        self.reused = 0
        self.peak_busy = 0

    def acquire(self) -> tuple:
        """Returns ``(handler, cost_ms)`` — reuse an idle handler or
        spawn a fresh process."""
        for handler in self._handlers:
            if not handler.busy and handler.proc.alive:
                handler.busy = True
                handler.served += 1
                self.reused += 1
                self._note_busy()
                return handler, self.lpm.cost.handler_reuse_ms
        proc = self.lpm.host.kernel.spawn(
            self.lpm.uid, "lpm-handler", ppid=self.lpm.proc.pid,
            state=ProcState.SLEEPING)
        handler = Handler(proc)
        handler.busy = True
        handler.served += 1
        self._handlers.append(handler)
        self.spawned += 1
        self._note_busy()
        return handler, self.lpm.cost.handler_spawn_ms

    def release(self, handler: Optional[Handler]) -> None:
        """Return a handler to the pool; surplus handlers exit."""
        if handler is None:
            return
        handler.busy = False
        limit = self.lpm.config.handler_pool_max
        if len(self._handlers) > limit and handler.proc.alive:
            self._handlers.remove(handler)
            if not self.lpm.host.kernel.halted:
                self.lpm.host.kernel.exit(handler.proc.pid)

    def _note_busy(self) -> None:
        self.peak_busy = max(self.peak_busy, self.busy_count())

    def busy_count(self) -> int:
        return sum(1 for handler in self._handlers if handler.busy)

    def size(self) -> int:
        return len(self._handlers)

    def shutdown(self) -> None:
        """Terminate every handler process (LPM exit path)."""
        for handler in self._handlers:
            if handler.proc.alive and not self.lpm.host.kernel.halted:
                self.lpm.host.kernel.exit(handler.proc.pid)
        self._handlers.clear()
