"""Simulated user programs.

The workloads the paper's evaluation runs against the PPM: CPU spinners
(to raise the run-queue load into Table 1's bands), sleepers, short-lived
workers (the "UNIX reality of many short lived processes", section 3),
and fork trees (the "arbitrary genealogical process structure
relationships" of section 1 that pipelines cannot express).

A program drives its process by scheduling kernel calls; the kernel
invokes the ``on_stop`` / ``on_continue`` / ``on_exit`` / ``on_halt``
hooks so that timers pause while the process is stopped and vanish when
it dies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError


class Program:
    """Base class: a process image that does nothing until killed."""

    def start(self, kernel, proc) -> None:
        """Called when the process begins executing this image."""

    def on_stop(self, kernel, proc) -> None:
        """SIGSTOP delivered: pause internal timers."""

    def on_continue(self, kernel, proc) -> None:
        """SIGCONT delivered: resume internal timers."""

    def on_exit(self, kernel, proc) -> None:
        """The process is terminating (voluntarily or by signal)."""

    def on_halt(self, kernel, proc) -> None:
        """The host crashed underneath the process."""


class _TimedProgram(Program):
    """Shared machinery for programs that run for a duration and exit.

    Stopping the process freezes the remaining run time; continuing
    rearms it.  All timers are cancelled on exit or host crash.
    """

    def __init__(self, duration_ms: Optional[float],
                 exit_status: int = 0) -> None:
        if duration_ms is not None and duration_ms < 0:
            raise ValueError("duration_ms must be >= 0 or None")
        self.duration_ms = duration_ms
        self.exit_status = exit_status
        self._timer = None
        self._remaining_ms: Optional[float] = None
        self._armed_at_ms = 0.0

    def start(self, kernel, proc) -> None:
        self._remaining_ms = self.duration_ms
        self._arm(kernel, proc)

    def _arm(self, kernel, proc) -> None:
        if self._remaining_ms is None:
            return  # runs forever
        self._armed_at_ms = kernel.sim.now_ms
        self._timer = kernel.sim.schedule(
            self._remaining_ms, self._finish, kernel, proc)

    def _finish(self, kernel, proc) -> None:
        self._timer = None
        if kernel.halted or not proc.alive:
            return
        kernel.exit(proc.pid, status=self.exit_status)

    def _disarm(self, kernel) -> None:
        if self._timer is not None:
            if self._remaining_ms is not None:
                elapsed = kernel.sim.now_ms - self._armed_at_ms
                self._remaining_ms = max(self._remaining_ms - elapsed, 0.0)
            kernel.sim.cancel(self._timer)
            self._timer = None

    def on_stop(self, kernel, proc) -> None:
        self._disarm(kernel)

    def on_continue(self, kernel, proc) -> None:
        self._arm(kernel, proc)

    def on_exit(self, kernel, proc) -> None:
        self._disarm(kernel)

    def on_halt(self, kernel, proc) -> None:
        if self._timer is not None:
            kernel.sim.cancel(self._timer)
            self._timer = None


class SpinnerProgram(_TimedProgram):
    """Pure CPU burner: RUNNING for ``duration_ms`` (or forever), then
    exits.  Used to push the load average into Table 1's bands."""


class WorkerProgram(_TimedProgram):
    """A short-lived job that computes and exits with a status."""


class FileWorkerProgram(_TimedProgram):
    """A job that opens files while it works.

    Drives the open/close syscalls so the files and file-descriptor
    tools (the section 7 tool list) have something to display.  Files
    in ``files`` are opened at start; each entry of ``close_after_ms``
    (path, delay) closes that path's descriptor before exit; anything
    still open is closed by the kernel at exit.
    """

    def __init__(self, duration_ms, files, close_after_ms=(),
                 exit_status: int = 0) -> None:
        super().__init__(duration_ms, exit_status)
        self.files = list(files)
        self.close_after_ms = list(close_after_ms)
        self._fds = {}
        self._close_timers = []

    def start(self, kernel, proc) -> None:
        for path in self.files:
            self._fds[path] = kernel.open_file(proc.pid, path)
        for path, delay_ms in self.close_after_ms:
            timer = kernel.sim.schedule(
                delay_ms, self._close_one, kernel, proc, path)
            self._close_timers.append(timer)
        super().start(kernel, proc)

    def _close_one(self, kernel, proc, path) -> None:
        if kernel.halted or not proc.alive:
            return
        fd = self._fds.pop(path, None)
        if fd is not None and fd in proc.fd_table:
            kernel.close_file(proc.pid, fd)

    def on_exit(self, kernel, proc) -> None:
        super().on_exit(kernel, proc)
        for timer in self._close_timers:
            kernel.sim.cancel(timer)
        self._close_timers.clear()

    def on_halt(self, kernel, proc) -> None:
        super().on_halt(kernel, proc)
        for timer in self._close_timers:
            kernel.sim.cancel(timer)
        self._close_timers.clear()


class SleeperProgram(_TimedProgram):
    """Blocked on I/O: SLEEPING, so it never contributes to the run
    queue, then exits."""

    def start(self, kernel, proc) -> None:
        from .process import ProcState
        proc.set_state(ProcState.SLEEPING, kernel.sim.now_ms)
        kernel.loadavg.note_change()
        super().start(kernel, proc)


class EchoProgram(_TimedProgram):
    """A server process: accepts user-IPC connections and echoes every
    message back.  Listens on its own ``<host, pid>`` identity."""

    def __init__(self, duration_ms=None, exit_status: int = 0) -> None:
        super().__init__(duration_ms, exit_status)
        self.channels = []
        self.messages_echoed = 0

    def start(self, kernel, proc) -> None:
        from ..ids import GlobalPid
        world = kernel.host.world

        def accept(channel) -> None:
            self.channels.append(channel)
            channel.on_message = self._echo

        world.ipc.listen(GlobalPid(kernel.host_name, proc.pid), accept)
        super().start(kernel, proc)

    def _echo(self, data, channel) -> None:
        self.messages_echoed += 1
        if channel.open:
            channel.send(("echo", data))

    def on_exit(self, kernel, proc) -> None:
        super().on_exit(kernel, proc)
        from ..ids import GlobalPid
        if kernel.host is not None:
            kernel.host.world.ipc.unlisten(
                GlobalPid(kernel.host_name, proc.pid))
        for channel in self.channels:
            channel.close()
        self.channels.clear()


class TalkerProgram(_TimedProgram):
    """A client process: connects to a peer by ``<host, pid>`` and sends
    periodic messages — no common ancestor or shared host needed."""

    def __init__(self, peer, interval_ms: float = 500.0,
                 count: int = 10, duration_ms=None,
                 exit_status: int = 0) -> None:
        super().__init__(duration_ms, exit_status)
        self.peer = peer
        self.interval_ms = interval_ms
        self.count = count
        self.channel = None
        self.replies_seen = 0
        self._send_timer = None
        self._sent = 0

    def start(self, kernel, proc) -> None:
        from ..ids import GlobalPid
        world = kernel.host.world
        me = GlobalPid(kernel.host_name, proc.pid)

        def connected(channel) -> None:
            if channel is None or kernel.halted or not proc.alive:
                return
            self.channel = channel
            channel.on_message = self._on_reply
            self._schedule_send(kernel, proc)

        world.ipc.connect(me, self.peer).then(connected)
        super().start(kernel, proc)

    def _schedule_send(self, kernel, proc) -> None:
        if self._sent >= self.count:
            return
        self._send_timer = kernel.sim.schedule(
            self.interval_ms, self._send_one, kernel, proc)

    def _send_one(self, kernel, proc) -> None:
        from ..errors import ConnectionClosedError
        self._send_timer = None
        if kernel.halted or not proc.alive or self.channel is None \
                or not self.channel.open:
            return
        try:
            self.channel.send(("msg", self._sent + 1))
        except ConnectionClosedError:
            return  # the peer (or its host) is gone; stop talking
        self._sent += 1
        self._schedule_send(kernel, proc)

    def _on_reply(self, data, channel) -> None:
        self.replies_seen += 1

    def _teardown(self, kernel) -> None:
        if self._send_timer is not None:
            kernel.sim.cancel(self._send_timer)
            self._send_timer = None
        if self.channel is not None:
            self.channel.close()

    def on_exit(self, kernel, proc) -> None:
        super().on_exit(kernel, proc)
        self._teardown(kernel)

    def on_halt(self, kernel, proc) -> None:
        super().on_halt(kernel, proc)
        self._teardown(kernel)


class ForkTreeProgram(Program):
    """Forks a subtree of children according to a spec.

    The spec is a sequence of ``(command, delay_ms, child_program)``
    tuples; each child is spawned after its delay.  This builds the
    arbitrary genealogies the PPM exists to manage.
    """

    def __init__(self, children: Sequence[Tuple[str, float, Program]],
                 duration_ms: Optional[float] = None,
                 exit_status: int = 0) -> None:
        self.children_spec = list(children)
        self._body = _TimedProgram(duration_ms, exit_status)
        self._spawn_timers: List = []

    def start(self, kernel, proc) -> None:
        self._body.start(kernel, proc)
        for command, delay_ms, child_program in self.children_spec:
            timer = kernel.sim.schedule(
                delay_ms, self._spawn_child, kernel, proc, command,
                child_program)
            self._spawn_timers.append(timer)

    def _spawn_child(self, kernel, proc, command, child_program) -> None:
        if kernel.halted or not proc.alive:
            return
        kernel.spawn(proc.uid, command, ppid=proc.pid,
                     program=child_program, foreground=proc.foreground)

    def on_stop(self, kernel, proc) -> None:
        self._body.on_stop(kernel, proc)

    def on_continue(self, kernel, proc) -> None:
        self._body.on_continue(kernel, proc)

    def on_exit(self, kernel, proc) -> None:
        self._body.on_exit(kernel, proc)
        for timer in self._spawn_timers:
            kernel.sim.cancel(timer)
        self._spawn_timers.clear()

    def on_halt(self, kernel, proc) -> None:
        self._body.on_halt(kernel, proc)
        for timer in self._spawn_timers:
            kernel.sim.cancel(timer)
        self._spawn_timers.clear()


def build_program(spec: Optional[dict]) -> Optional[Program]:
    """Materialise a program image from its wire spec."""
    if spec is None:
        return None
    kind = spec.get("type")
    if kind == "spinner":
        return SpinnerProgram(spec.get("duration_ms"))
    if kind == "sleeper":
        return SleeperProgram(spec.get("duration_ms"))
    if kind == "worker":
        return WorkerProgram(spec["duration_ms"],
                             exit_status=spec.get("exit_status", 0))
    if kind == "file_worker":
        return FileWorkerProgram(
            spec["duration_ms"], spec.get("files", []),
            close_after_ms=[(path, delay) for path, delay
                            in spec.get("close_after_ms", [])],
            exit_status=spec.get("exit_status", 0))
    if kind == "fork_tree":
        children = [(command, delay_ms,
                     build_program(child_spec) if child_spec is not None
                     else SpinnerProgram(None))
                    for command, delay_ms, child_spec
                    in spec.get("children", [])]
        return ForkTreeProgram(children,
                               duration_ms=spec.get("duration_ms"),
                               exit_status=spec.get("exit_status", 0))
    raise ReproError("unknown program spec type %r" % (kind,))
