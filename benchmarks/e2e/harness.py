"""The load generator's machinery: CPU pinning, the serve fleet, /proc
accounting, the sliced closed loop, and the leftover check.

Standard library only — nothing here imports ``repro``, so the clock
that times set-up starts before the program under test is loaded.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Scratch directory (registry files, serve stderr, span dumps).  Inside
#: the checkout, ignored by git, removed when the last run leaves it.
WORK_DIR = os.path.join(HERE, ".work")

#: A measured window is cut into slices of this length; each end-to-end
#: metric is the median over the slices (README, "Reduction").
SLICE_S = 2.0

#: Environment variable that tags every process a fleet starts; the
#: leftover check looks for it in ``/proc/<pid>/environ``.
RUN_TAG = "PPM_E2E_RUN"


class HarnessError(Exception):
    """The benchmark could not run (as opposed to: an op failed)."""


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to the highest-numbered
    CPU it may use.  A two-process loopback ping-pong on two CPUs is
    wake-up bound and bimodal; on one CPU it is not (README)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

def cpu_ns(pid: int) -> int:
    """CPU time a process has consumed, in ns: ``schedstat`` field 1
    summed over its threads; ``stat`` utime+stime where the kernel has
    no schedstats."""
    try:
        total = 0
        for task in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/schedstat" % (pid, task)) as handle:
                total += int(handle.read().split()[0])
        return total
    except FileNotFoundError:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def fleet_cpu_ns(serve_pids: Sequence[int]) -> int:
    """CPU of the load generator plus the serve processes.  Our own
    share comes from the process clock: ``schedstat`` of a running task
    lags by up to a scheduler tick."""
    return time.process_time_ns() + sum(cpu_ns(pid) for pid in serve_pids)


def peak_rss_kb(pid: int) -> int:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise HarnessError("no VmHWM for pid %d" % pid)


def cpu_ticks(cpu: int) -> List[int]:
    """The ``cpu<N>`` line of ``/proc/stat`` (user, nice, system, idle,
    iowait, irq, softirq, steal, ...)."""
    prefix = "cpu%d " % cpu
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                return [int(field) for field in line.split()[1:]]
    raise HarnessError("no %r line in /proc/stat" % prefix)


def steal_percent(before: List[int], after: List[int]) -> float:
    """Share of the CPU's time the hypervisor gave to someone else."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return 100.0 * deltas[7] / total if total else 0.0


def tagged_pids(tag: str) -> List[int]:
    """Live processes whose environment carries ``RUN_TAG=<tag>``."""
    needle = ("%s=%s" % (RUN_TAG, tag)).encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/environ" % entry, "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


# ----------------------------------------------------------------------
# The speed reference
# ----------------------------------------------------------------------

#: Seconds one reference burst takes at the speed every time is
#: reported at: this benchmark's yardstick.  It is the burst's typical
#: length on the machine the benchmark was written on, so a speed of 1.0
#: is that machine on an ordinary day.  Changing it, or the kernel,
#: changes every number: both are part of the metric definitions.
REF_NOMINAL_S = 0.00062

#: Bursts in the block that brackets a set-up.
REF_BLOCK = 5


class _Record:
    __slots__ = ("count", "key", "fields")

    def __init__(self, count: int, key: str) -> None:
        self.count, self.key, self.fields = count, key, None

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


class SpeedReference:
    """How fast is this CPU right now, for code like the program's?

    The guest cannot see why its CPU got slower (a neighbour on the
    sibling hyperthread, a frequency change); the same code took 25 %
    longer for minutes at a time, and up to 2x for seconds, while steal
    time read 0 (README, "Speed correction").  So the load generator
    times a fixed kernel between ops — interpreter work like the
    program's (objects, dicts, attribute access, formatting, bytes) and
    kernel work like the program's (socket send/recv, ``/proc`` reads) —
    and every reported time is rescaled by how long that kernel took
    next to it.
    """

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()
        #: Every burst's speed factor so far, oldest first.
        self.speeds: List[float] = []
        #: CPU this process has spent inside bursts, to be left out of
        #: the program's CPU and of every elapsed time.
        self.cpu_ns = 0

    def close(self) -> None:
        self._near.close()
        self._far.close()

    def burst(self) -> None:
        """Run the kernel once and note its speed factor: time taken over
        ``REF_NOMINAL_S`` (above 1: the machine is slower than the
        reference).  Timed on this process's CPU clock: a serve process
        that takes the CPU in mid-burst (work put off until after the
        reply) must not read as a slower machine."""
        before = time.process_time_ns()
        self._kernel()
        took_ns = time.process_time_ns() - before
        self.cpu_ns += took_ns
        self.speeds.append(took_ns / 1e9 / REF_NOMINAL_S)

    def block(self) -> None:
        """``REF_BLOCK`` bursts (set-up is bracketed by them)."""
        for _ in range(REF_BLOCK):
            self.burst()

    def _kernel(self) -> int:
        send, receive = self._near.send, self._far.recv
        payload = b"x" * 96
        total = 0
        for _ in range(60):
            send(payload)
            total += len(receive(4096))
        for _ in range(10):
            with open("/proc/self/stat", "rb") as handle:
                total += len(handle.read())
        table = {}
        bumped = []
        for index in range(400):
            record = _Record(index, "k%d" % index)
            table[record.key] = record
            record.fields = [index, record.key, (index, index + 1)]
            bumped.append(record.bump(3))
        for key, record in table.items():
            total += len(key) + record.fields[0]
        return total + len(b"".join(str(value).encode()
                                    for value in bumped[:100]))


def scaling_share(wall_s: float, own_s: float, cpu_s: float) -> float:
    """The share of ``wall_s`` that stretches when the machine slows.

    One CPU, one caller: a stretch of wall time is the load generator's
    own CPU time (``own_s``) plus the time it is blocked.  Its own CPU
    time scales with the machine's speed.  While it is blocked the serve
    processes work (``cpu_s - own_s``) and the rest is idle (a timer:
    the fabric's pump nap).  Where they are busy for nearly all of the
    blocked time the caller is waiting for them, and their work scales
    the stretch; where they are busy for little of it the caller is
    waiting for a timer, their work hides inside the nap, and a slower
    machine only makes the idle part shorter.  So serve CPU counts in
    proportion to the share of the blocked time it fills (README,
    "Speed correction").
    """
    serve_s = max(0.0, cpu_s - own_s)
    blocked_s = max(wall_s - own_s, serve_s, 1e-9)
    return min(1.0, (own_s + serve_s * serve_s / blocked_s) / wall_s)


def at_reference_speed(wall_s: float, share: float, speed: float) -> float:
    """``wall_s`` as it would have read at the reference speed, when
    ``share`` of it scales with the machine's speed and the rest
    (timers, naps) does not."""
    return wall_s * (1.0 - share + share / speed)


def stretch_report(wall_s: float, own_s: float, cpu_s: float,
                   speed: float) -> dict:
    """A stretch of set-up: as measured, and at the reference speed."""
    share = scaling_share(wall_s, own_s, cpu_s)
    return {"wall_s": wall_s, "scaling_share": share, "speed": speed,
            "at_reference_s": at_reference_speed(wall_s, share, speed)}


def timed_stretch(action: Callable[[], None], fleet: "Fleet",
                  reference: SpeedReference) -> dict:
    """Run one stretch of set-up: how long it took as measured (less the
    CPU that bursts inside it used), and at the reference speed.  Its
    speed is the mean over a block of bursts before it, whatever bursts
    ``action`` runs, and a block after it.  The fleet may grow during
    the stretch: a serve process born in it has spent all its CPU in
    it."""
    first_burst = len(reference.speeds)
    reference.block()
    own_before = time.process_time_ns() - reference.cpu_ns
    cpu_before = fleet_cpu_ns(fleet.pids) - reference.cpu_ns
    started = time.perf_counter() - reference.cpu_ns / 1e9
    action()
    wall_s = time.perf_counter() - reference.cpu_ns / 1e9 - started
    cpu_s = (fleet_cpu_ns(fleet.pids) - reference.cpu_ns
             - cpu_before) / 1e9
    own_s = (time.process_time_ns() - reference.cpu_ns - own_before) / 1e9
    reference.block()
    return stretch_report(wall_s, own_s, cpu_s,
                          statistics.fmean(reference.speeds[first_burst:]))


# ----------------------------------------------------------------------
# The serve fleet
# ----------------------------------------------------------------------

class Fleet:
    """``repro serve`` processes sharing one temporary registry.

    Launch waits on the ``READY <host> <port>`` line each process
    prints, not on the registry: a registry poll puts launch time on
    the poll interval's grid (README).
    """

    def __init__(self, hosts: Sequence[str], budget_s: float,
                 traced: bool = False, span_cap: int = 0) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        self.tag = os.path.basename(self.dir)
        self.registry_path = os.path.join(self.dir, "registry.json")
        self.hosts = list(hosts)
        self.budget_s = budget_s
        self.traced = traced
        self.span_cap = span_cap
        self.processes: List[subprocess.Popen] = []
        #: Pids, and the scratch directory's path, that outlived the
        #: orderly shutdown (must stay empty).
        self.leftovers: list = []
        #: What each traced serve process wrote on exit, in host order.
        self.exports: List[dict] = []

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self.processes]

    def dump_path(self, host: str) -> str:
        return os.path.join(self.dir, "spans-%s.json" % host)

    def launch(self) -> None:
        env = dict(os.environ, **{RUN_TAG: self.tag})
        env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, REPO_ROOT])
        for host in self.hosts:
            entry = ["-m", "repro", "serve"]
            if self.traced:
                entry = ["-m", "benchmarks.e2e.traced_serve",
                         "--dump", self.dump_path(host),
                         "--span-cap", str(self.span_cap)]
            with open(os.path.join(self.dir, "serve-%s.err" % host),
                      "wb") as stderr:
                self.processes.append(subprocess.Popen(
                    [sys.executable] + entry +
                    ["--host", host, "--registry", self.registry_path,
                     "--budget-s", str(self.budget_s)],
                    stdout=subprocess.PIPE, stderr=stderr,
                    stdin=subprocess.DEVNULL, env=env, cwd=REPO_ROOT))
        deadline = time.monotonic() + 60.0
        for host, process in zip(self.hosts, self.processes):
            self._await_ready(host, process, deadline)

    def _await_ready(self, host: str, process: subprocess.Popen,
                     deadline: float) -> None:
        fd = process.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            readable, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if readable else b""
            if not chunk:
                with open(os.path.join(self.dir, "serve-%s.err" % host),
                          "r", errors="replace") as handle:
                    raise HarnessError(
                        "serve process %r never printed READY (got %r); "
                        "its stderr:\n%s" % (host, line, handle.read()))
            line += chunk
        if line.split()[:2] != [b"READY", host.encode()]:
            raise HarnessError("serve process %r said %r, not READY"
                               % (host, line))

    def close(self) -> None:
        """SIGTERM, wait, and only then look for leftovers: an orderly
        serve exit kills its managed children, so anything still tagged
        is a leak.  Leaks are killed and reported, never kept; so is a
        scratch directory that will not go away."""
        try:
            for process in self.processes:
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            for process in self.processes:
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.leftovers.append(process.pid)
                    process.kill()
                    process.wait()
                process.stdout.close()
            strays = tagged_pids(self.tag)
            self.leftovers.extend(strays)
            for pid in strays:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if self.traced:
                for host in self.hosts:
                    with open(self.dump_path(host),
                              encoding="utf-8") as handle:
                        self.exports.append(json.load(handle))
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            if os.path.exists(self.dir):
                self.leftovers.append(self.dir)
            try:
                os.rmdir(WORK_DIR)  # succeeds once the last run has left
            except OSError:
                pass


# ----------------------------------------------------------------------
# The measured window
# ----------------------------------------------------------------------

def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Window:
    """What one measured window saw, slice by slice."""

    def __init__(self) -> None:
        self.slices: List[dict] = []
        self.attempted = 0
        self.failed = 0
        #: What the first few failed ops said was wrong.
        self.failure_notes: List[str] = []
        self.start_ns = 0
        self.end_ns = 0

    def median_of(self, key: str) -> float:
        return statistics.median(entry[key] for entry in self.slices)

    def drift_ratio(self) -> float:
        """Median p50 of the last three slices over the first three: a
        run that slows as it goes (a leak, a growing table) is above 1."""
        third = min(3, len(self.slices))
        p50 = [entry["op_p50_ms"] for entry in self.slices]
        return statistics.median(p50[-third:]) / statistics.median(p50[:third])


def measure(op: Callable[[int], Optional[str]], seconds: float,
            serve_pids: Sequence[int], failures: tuple,
            reference: SpeedReference,
            mark_op: Optional[Callable[[int], None]] = None) -> Window:
    """Closed loop, one op outstanding: call ``op(i)`` back to back for
    ``seconds``, in slices of about ``SLICE_S``, with a reference burst
    before the first op of a slice and after every op.

    ``op`` returns what was wrong (or raises one of ``failures``) when
    its reply was an error, a timeout, or failed its output check, and
    None otherwise; a failed op still counts as attempted and
    contributes its latency.
    """
    count = max(1, round(seconds / SLICE_S))
    slice_s = seconds / count
    window = Window()
    index = 0
    window.start_ns = time.monotonic_ns()
    for _ in range(count):
        latencies: List[float] = []
        failed = 0
        own_before = time.process_time_ns() - reference.cpu_ns
        cpu_before = fleet_cpu_ns(serve_pids) - reference.cpu_ns
        #: One burst more than ops: op i runs between bursts i and i + 1.
        first_burst = len(reference.speeds)
        slice_started = time.perf_counter() - reference.cpu_ns / 1e9
        reference.burst()
        deadline = time.perf_counter() + slice_s
        while True:
            if mark_op is not None:
                mark_op(index)
            started = time.perf_counter()
            try:
                problem = op(index)
            except failures as exc:
                problem = repr(exc)
            ended = time.perf_counter()
            latencies.append(ended - started)
            reference.burst()
            if problem is not None:
                failed += 1
                if len(window.failure_notes) < 5:
                    window.failure_notes.append("op %d: %s"
                                                % (index, problem))
            index += 1
            if time.perf_counter() >= deadline:
                break
        wall_s = (time.perf_counter() - reference.cpu_ns / 1e9
                  - slice_started)
        cpu_s = (fleet_cpu_ns(serve_pids) - reference.cpu_ns
                 - cpu_before) / 1e9
        own_s = (time.process_time_ns() - reference.cpu_ns
                 - own_before) / 1e9
        window.attempted += len(latencies)
        window.failed += failed
        window.slices.append(_reduce_slice(
            latencies, reference.speeds[first_burst:], wall_s, own_s, cpu_s))
    window.end_ns = time.monotonic_ns()
    return window


def _reduce_slice(latencies: List[float], bursts: List[float],
                  wall_s: float, own_s: float, cpu_s: float) -> dict:
    """One slice's statistics, at the reference speed.

    Each op's speed is the mean of the bursts on either side of it (a
    wider average tracked the machine worse: its speed changes within
    tens of ms).  Its latency is corrected for the slice's scaling
    share; CPU time scales with speed outright.  ``wall_s`` is the
    slice's elapsed time less the CPU its bursts used, so whatever kept
    the CPU from the load generator between two ops (work a serve
    process put off until after its reply) counts against throughput.
    """
    ops = len(latencies)
    op_time = sum(latencies)
    share = scaling_share(op_time, own_s, cpu_s)
    speeds = [(before + after) / 2.0
              for before, after in zip(bursts, bursts[1:])]
    corrected = sorted(at_reference_speed(latency, share, speed)
                       for latency, speed in zip(latencies, speeds))
    #: Op-time-weighted harmonic mean: op_time at speed 1 / op_time.
    speed = op_time / sum(latency / speed
                          for latency, speed in zip(latencies, speeds))
    between_ops_s = max(0.0, wall_s - op_time)
    return {
        "ops": ops,
        "ops_per_s": ops / (sum(corrected) + between_ops_s / speed),
        "op_p50_ms": 1000.0 * statistics.median(corrected),
        "op_p90_ms": 1000.0 * percentile(corrected, 0.90),
        "cpu_ms_per_op": 1000.0 * cpu_s / speed / ops,
        # Not metrics: what the correction was made from.
        "speed": speed,
        "scaling_share": share,
        "raw_p50_ms": 1000.0 * statistics.median(latencies),
        "between_ops_ms": 1000.0 * between_ops_s / ops,
    }


def warm_up(op: Callable[[int], Optional[str]], ops: int, failures: tuple,
            reference: SpeedReference) -> None:
    """Run ``ops`` unmeasured ops (a reference burst after each, as in
    the window), then collect garbage, so lazy set-up and the first-call
    costs are set-up, not steady state.  A warm-up op that fails is a
    benchmark error: nothing would be measured."""
    for index in range(ops):
        try:
            problem = op(index)
        except failures as exc:
            raise HarnessError("warm-up op %d failed: %r"
                               % (index, exc)) from exc
        if problem is not None:
            raise HarnessError("warm-up op %d failed: %s"
                               % (index, problem))
        reference.burst()
    gc.collect()
