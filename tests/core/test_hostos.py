"""The host-OS contract (``repro.core.hostos``): a real LPM runs over a
kernel and a host that have nothing but the contracts' members, with
no simulated world, and both backends read the one control table."""

import signal
from types import SimpleNamespace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.control import CONTROL_SIGNALS, ControlAction
from repro.core.hostos import (
    HostKernel,
    HostServices,
    KernelEvent,
    KernelMessage,
    ProcState,
    TraceFlag,
)
from repro.core.lpm import LocalProcessManager
from repro.core.messages import Message, MsgKind
from repro.core.progspec import worker_spec
from repro.errors import NoSuchProcessError
from repro.ids import GlobalPid
from repro.latency import DEFAULT_COST_MODEL, HostClass
from repro.netsim.fabric import SimFabric
from repro.netsim.simulator import Simulator
from repro.tracing.recorder import TraceRecorder

#: What each signal does to a fake process.
_SIGNAL_STATES = {"SIGSTOP": ProcState.STOPPED,
                  "SIGCONT": ProcState.RUNNING,
                  "SIGTERM": ProcState.ZOMBIE,
                  "SIGKILL": ProcState.ZOMBIE}


def members(contract):
    """The public members a contract class declares."""
    return {name for name in vars(contract) if not name.startswith("_")} \
        | set(contract.__annotations__)


def public(fake):
    """The public members a fake instance has."""
    return {name for name in vars(fake) if not name.startswith("_")} | \
        {name for name in vars(type(fake)) if not name.startswith("_")}


class FakeKernel:
    """A host with exactly the contract's members and no simulator."""

    def __init__(self):
        self.procs = SimpleNamespace(
            find=lambda pid: self._table.get(pid),
            children_of=lambda pid: [proc for proc in self._table.values()
                                     if proc.ppid == pid],
            alive_by_uid=lambda uid: [proc for proc in self._table.values()
                                      if proc.uid == uid and proc.alive])
        self.loadavg = SimpleNamespace(value=lambda: 0.0)
        self.halted = False
        self._table = {}
        self._log = []
        self._sockets = {}

    def spawn(self, uid, command, args=(), program=None, ppid=1,
              state=ProcState.RUNNING, foreground=True):
        pid = 100 + len(self._table)
        proc = self._table[pid] = SimpleNamespace(
            pid=pid, ppid=ppid, uid=uid, command=command, state=state,
            start_ms=5.0, end_ms=None, exit_status=None,
            foreground=foreground, program=program,
            rusage=SimpleNamespace(utime_ms=1.5, forks=0,
                                   signals_received=0),
            fd_table={}, closed_files=[])
        proc.alive = True
        return proc

    def exit(self, pid, status=0, term_signal=None):
        proc = self._table[pid]
        proc.state, proc.alive = ProcState.ZOMBIE, False
        proc.end_ms, proc.exit_status = 9.0, status

    def control(self, pid, action, sender_uid):
        proc = self._table.get(pid)
        if proc is None:
            raise NoSuchProcessError(str(pid))
        name, foreground = CONTROL_SIGNALS[action]
        self._log.append((pid, name, foreground))
        if foreground is not None:
            proc.foreground = foreground
        proc.state = _SIGNAL_STATES[name]
        proc.alive = proc.state.alive

    def adopt(self, lpm_uid, pid, flags=TraceFlag.ALL):
        self._log.append(("adopt", pid, flags))
        return self._table[pid]

    def set_trace_flags(self, lpm_uid, pid, flags):
        self._log.append(("trace", pid, flags))

    def register_lpm(self, uid, deliver):
        self._sockets[uid] = deliver

    def unregister_lpm(self, uid):
        self._sockets.pop(uid, None)


class FakeHost:
    """A machine with exactly :class:`HostServices`' members: one
    account, no ``.recovery`` file, a service table and no pmd."""

    host_class = HostClass.VAX_780

    def __init__(self, kernel):
        self.name = "alpha"
        self.kernel = kernel
        self.up = True
        self._services = {}
        self._forgotten = []

    def uid_of(self, user):
        return {"lfc": 1001}[user]

    def read_recovery_file(self, user):
        return []

    def listen(self, service, acceptor):
        self._services[service] = acceptor

    def unlisten(self, service):
        self._services.pop(service, None)

    def forget_lpm(self, user):
        self._forgotten.append(user)


class RecordingEndpoint:
    """A tool stream that keeps every message the LPM sends on it."""

    def __init__(self):
        self.open = True
        self.sent = []

    def send(self, payload, nbytes=0, extra_delay_ms=0.0):
        self.sent.append(payload)

    def close(self):
        self.open = False


def lpm_over(kernel):
    """A real LPM on a fake host, over a bare simulator's fabric: no
    network, no world."""
    sim = Simulator(seed=1)
    return LocalProcessManager(
        SimFabric(sim, network=None), FakeHost(kernel), "lfc",
        "0123456789abcdef", "fedcba9876543210", DEFAULT_CONFIG,
        DEFAULT_COST_MODEL, TraceRecorder(lambda: sim.now_ms))


def serve(lpm, kind, **payload):
    """One tool request through the LPM's tool service, run to its
    reply."""
    endpoint = RecordingEndpoint()
    request = Message(kind=kind, req_id=1, origin=lpm.name, user=lpm.user,
                      payload=payload)
    lpm.tool_service.on_message(request, endpoint)
    assert lpm.fabric.run_until_true(lambda: endpoint.sent,
                                     timeout_ms=10_000.0)
    [reply] = endpoint.sent
    assert (reply.kind, reply.reply_to) == (MsgKind.TOOL_REPLY, 1)
    return reply.payload


def test_the_fake_kernel_has_nothing_but_the_contract():
    assert public(FakeKernel()) == members(HostKernel)


def test_the_fake_host_has_nothing_but_the_contract():
    assert public(FakeHost(FakeKernel())) == members(HostServices)


def test_an_lpm_serves_tools_with_no_world():
    kernel = FakeKernel()
    lpm = lpm_over(kernel)
    assert lpm.accept_service in lpm.host._services
    assert serve(lpm, MsgKind.TOOL_PING) == {
        "ok": True, "host": "alpha", "time_ms": lpm.fabric.now_ms}
    created = serve(lpm, MsgKind.TOOL_CREATE, command="job",
                    program=worker_spec(10.0))
    assert created == {"ok": True, "host": "alpha",
                       "pid": created["pid"]}
    assert kernel.procs.find(created["pid"]).ppid == lpm.proc.pid
    snapshot = serve(lpm, MsgKind.TOOL_SNAPSHOT)
    assert snapshot["ok"]
    assert [(record["host"], record["pid"], record["command"])
            for record in snapshot["records"]] == [
        ("alpha", created["pid"], "job")]
    lpm.shutdown("test over")
    assert lpm.host._services == {} and lpm.host._forgotten == ["lfc"]
    assert not lpm.proc.alive


def test_creation_passes_the_program_spec_through_unread():
    kernel = FakeKernel()
    lpm = lpm_over(kernel)
    spec = worker_spec(10.0, exit_status=2)
    proc = lpm.table.create_local_process("job", program_spec=spec,
                                          foreground=False)
    assert proc.program is spec and proc.ppid == lpm.proc.pid
    assert ("adopt", proc.pid, lpm.trace_flags) in kernel._log
    record = lpm.table.records[proc.pid]
    assert (record.command, record.state, record.foreground) \
        == ("job", "running", False)


def test_adoption_walks_the_live_descendants():
    kernel = FakeKernel()
    lpm = lpm_over(kernel)
    parent = kernel.spawn(1001, "make")
    child = kernel.spawn(1001, "cc", ppid=parent.pid)
    assert sorted(lpm.table.adopt_process(parent.pid)) \
        == [parent.pid, child.pid]
    assert lpm.table.records[child.pid].parent == \
        GlobalPid("alpha", parent.pid)


def test_kernel_messages_drive_the_records():
    kernel = FakeKernel()
    lpm = lpm_over(kernel)
    deliver = kernel._sockets[lpm.uid]
    parent = lpm.table.create_local_process("sh")
    child = kernel.spawn(1001, "ls", ppid=parent.pid)

    def post(event, proc, **details):
        deliver(KernelMessage(event=event, host="alpha", pid=proc.pid,
                              ppid=proc.ppid, uid=1001,
                              command=proc.command, timestamp_ms=7.0,
                              details=details))

    post(KernelEvent.FORK, child)
    post(KernelEvent.STOPPED, child)
    assert lpm.table.records[child.pid].state == "stopped"
    post(KernelEvent.CONTINUED, child)
    assert lpm.table.records[child.pid].state == "running"
    kernel.exit(child.pid, status=4)
    post(KernelEvent.EXIT, child, status=4)
    [record] = lpm.table.local_records("rstats")
    assert (record["pid"], record["parent"], record["exit_status"]) \
        == (child.pid, ["alpha", parent.pid], 4)
    assert record["rusage"]["utime_ms"] == 1.5


@pytest.mark.parametrize("action", list(ControlAction))
def test_every_control_action_reaches_the_kernel_once(action):
    kernel = FakeKernel()
    lpm = lpm_over(kernel)
    proc = lpm.table.create_local_process("job")
    del kernel._log[:]
    result = lpm._apply_control(proc.pid, action.value)
    assert result == {"ok": True, "pid": proc.pid, "action": action.value,
                      "host": "alpha"}
    name, foreground = CONTROL_SIGNALS[action]
    assert kernel._log == [(proc.pid, name, foreground)]
    assert proc.foreground is (True if foreground is None else foreground)


def test_control_errors_become_replies():
    lpm = lpm_over(FakeKernel())
    assert lpm._apply_control(999, "stop") == {
        "ok": False, "error": "NoSuchProcessError: 999"}
    assert not lpm._apply_control(999, "pause")["ok"]


def test_both_backends_read_the_one_control_table():
    from repro.localos.backend import _ACTION_SIGNALS
    from repro.unixsim.kernel import _CONTROL
    from repro.unixsim.signals import Signal

    assert set(CONTROL_SIGNALS) == set(ControlAction)
    for action, (name, foreground) in CONTROL_SIGNALS.items():
        assert _CONTROL[action] == (Signal[name], foreground)
        assert _ACTION_SIGNALS[action] == getattr(signal, name)
    # The simulator keeps 4.3BSD numbering, whatever the host's is.
    assert int(_CONTROL[ControlAction.STOP][0]) == 17
