"""Workload generators for the evaluation scenarios.

Table 1 needs hosts held inside specific run-queue-load bands; Table 3
needs "six user processes in each of the remote machines".
"""

from __future__ import annotations

from typing import List, Tuple

from ..unixsim.programs import SpinnerProgram
from ..unixsim.signals import Signal


def raise_load_to_band(world, host, band: Tuple[float, float],
                       uid: int = 0) -> List[int]:
    """Spawn CPU spinners until the host's load average sits inside
    ``band = (lo, hi]`` and return their pids.

    The spinners are genuine RUNNING processes; the load average is the
    kernel's real exponentially damped run-queue estimator, so this
    reproduces the measurement conditions rather than pinning a number.
    """
    lo, hi = band
    count = max(int(round(hi)), 1)
    pids = [host.kernel.spawn(uid, "load-spinner",
                              program=SpinnerProgram(None)).pid
            for _ in range(count)]
    # With ``count`` spinners the load average rises asymptotically to
    # ``count`` = ``hi``; once past the band midpoint it stays inside
    # the band for the whole measurement window.  Time is advanced in
    # slices because the estimator evolves continuously, not on events.
    midpoint = (lo + hi) / 2.0
    deadline = world.sim.now_ms + 3_600_000.0
    while not midpoint <= host.kernel.loadavg.value() < hi:
        if world.sim.now_ms > deadline:
            raise RuntimeError("load never entered band (%s, %s]"
                               % (lo, hi))
        world.run_for(1_000.0)
    return pids


def clear_load(world, host, pids: List[int], uid: int = 0) -> None:
    """Kill the spinners and let the load decay back to idle."""
    for pid in pids:
        proc = host.kernel.procs.find(pid)
        if proc is not None and proc.alive:
            host.kernel.kill(pid, Signal.SIGKILL, sender_uid=uid)
    deadline = world.sim.now_ms + 3_600_000.0
    while host.kernel.loadavg.value() >= 0.2:
        if world.sim.now_ms > deadline:
            raise RuntimeError("load never decayed")
        world.run_for(1_000.0)


def measure_kernel_deliveries(world, host, lpm, target_pid: int,
                              band: Tuple[float, float],
                              samples: int = 20) -> List[float]:
    """Sample the kernel->LPM delivery time while the load average is
    inside ``band``.

    Each sample toggles the adopted target with SIGSTOP/SIGCONT, which
    makes the modified system calls post event messages to the LPM's
    kernel socket; the delivery delay is arrival time minus the posting
    timestamp carried in the message.
    """
    lo, hi = band
    kernel = host.kernel
    uid = lpm.uid
    delays: List[float] = []
    original_hook = kernel._lpm_hooks[uid]

    def wrapper(kmsg) -> None:
        delays.append(world.sim.now_ms - kmsg.timestamp_ms)
        original_hook(kmsg)

    kernel._lpm_hooks[uid] = wrapper
    try:
        while len(delays) < samples:
            if not (lo < kernel.loadavg.value() <= hi):
                raise RuntimeError(
                    "load left band (%s, %s]: la=%.2f"
                    % (lo, hi, kernel.loadavg.value()))
            before = len(delays)
            kernel.kill(target_pid, Signal.SIGSTOP, sender_uid=uid)
            world.run_until_true(lambda: len(delays) > before,
                                 timeout_ms=60_000.0)
            kernel.kill(target_pid, Signal.SIGCONT, sender_uid=uid)
            world.run_for(50.0)
    finally:
        kernel._lpm_hooks[uid] = original_hook
    return delays[:samples]
