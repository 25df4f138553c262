"""The load estimator of Table 1: a time-averaged CPU run-queue length.

The paper's ``la`` is the classic UNIX exponentially damped average of
the run-queue length.  We integrate it exactly in continuous time: the
average decays toward the instantaneous runnable count ``n`` with time
constant ``tau``, so over an interval of length ``dt`` with constant
``n``::

    la' = n + (la - n) * exp(-dt / tau)

Updates happen lazily whenever the runnable count changes or the value
is read, which keeps the estimator exact and free of periodic timers.

The contract that keeps it exact: :meth:`LoadAverage.note_change` is
the only place the runnable count is read, so the owner must call it
after every transition into or out of the run queue.  The kernel does
so on spawn, exit, stop, continue and halt, and ``SleeperProgram.start``
on putting a fresh process to sleep; between two such calls the count
is constant, and :meth:`LoadAverage.value` integrates with the count
the last call saw.
"""

from __future__ import annotations

import math
from typing import Callable

from ..perf import PERF


class LoadAverage:
    """Exponentially damped run-queue average."""

    def __init__(self, now_fn: Callable[[], float],
                 runnable_fn: Callable[[], int],
                 tau_ms: float = 60_000.0) -> None:
        self._now_fn = now_fn
        self._runnable_fn = runnable_fn
        self.tau_ms = tau_ms
        self._value = 0.0
        self._last_ms = now_fn()
        self._last_n = runnable_fn()

    def _integrate_to(self, now_ms: float) -> None:
        dt = now_ms - self._last_ms
        if dt > 0:
            if self._value == self._last_n:
                # Steady state — an idle host (la == n == 0) or one that
                # fully converged: la' = n + (la - n)*decay = la exactly,
                # so skip the exp() instead of recomputing a no-op.
                PERF.loadavg_idle_skips += 1
                self._last_ms = now_ms
                return
            decay = math.exp(-dt / self.tau_ms)
            self._value = self._last_n + (self._value - self._last_n) * decay
            self._last_ms = now_ms

    def note_change(self) -> None:
        """Call when the runnable count may have changed."""
        self._integrate_to(self._now_fn())
        self._last_n = self._runnable_fn()

    def value(self) -> float:
        """Current ``la``; never reads the runnable count (see the
        module docstring)."""
        self._integrate_to(self._now_fn())
        return self._value

    def force(self, value: float) -> None:
        """Pin the average (used by calibration tests)."""
        self._value = value
        self._last_ms = self._now_fn()
        self._last_n = self._runnable_fn()

    def __repr__(self) -> str:
        return "LoadAverage(la=%.2f, n=%d)" % (self._value, self._last_n)
