"""The 4.2BSD rexec baseline.

"Rexec allows the creation of remote processes and the delivery of
signals to these processes.  By itself, however, it is insufficient for
starting distributed computations since no provision is made for
flexibly configuring the communication links and open files of the
remote process, or for separately signalling any children of the remote
process.  Moreover, since the rexec call is made directly from a user
process to a remote daemon, the shell's process control facilities do
not affect the remote processes.  Remote processes must therefore be
explicitly hunted for and signalled." (section 6)

Faithfully modelled: a per-host ``rexecd`` authenticating every call
with the user's *password* (no trusted introduction), a fresh
connection per operation (nothing is maintained between calls), signals
addressed only to the pid the caller created (children unreachable),
and no notion of computation state whatsoever.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import NoSuchProcessError, PPMError, ProcessPermissionError
from ..ids import GlobalPid
from ..netsim.stream import StreamConnection
from ..unixsim.process import ProcState
from ..unixsim.signals import Signal
from ..util import Deferred

REXEC_SERVICE = "rexecd"


class RexecDaemon:
    """Per-host remote-execution daemon."""

    def __init__(self, host) -> None:
        self.host = host
        self.proc = host.kernel.spawn(0, "rexecd",
                                      state=ProcState.SLEEPING)
        host.node.listen(REXEC_SERVICE, self._accept)
        self.requests = 0

    def _accept(self, endpoint, payload) -> None:
        endpoint.on_message = self._on_message
        if isinstance(payload, dict) and payload.get("request"):
            self._serve(endpoint, payload)

    def _on_message(self, payload, endpoint) -> None:
        if isinstance(payload, dict) and payload.get("request"):
            self._serve(endpoint, payload)

    def _serve(self, endpoint, payload: dict) -> None:
        self.requests += 1
        # A real rexecd waits on its children; reap zombies first.
        self.host.kernel.reap(self.proc.pid)
        # Password authentication on every call — rexec sends the
        # cleartext password each time.
        user = payload.get("user", "")
        if not self.host.users.check_password(user,
                                              payload.get("password", "")):
            self._reply(endpoint, {"ok": False,
                                   "error": "authentication failed"})
            return
        uid = self.host.uid_of(user)
        request = payload["request"]
        cost = self.host.cpu_cost(self.host.world.cost_model.fork_ms
                                  + self.host.world.cost_model.exec_ms) \
            if request == "exec" else \
            self.host.cpu_cost(self.host.world.cost_model.signal_ms)

        # Message processing at the daemon (unmarshalling, checks) costs
        # what any per-message protocol processing costs on this class
        # of machine.
        cost += self.host.cpu_cost(
            self.host.world.cost_model.sibling_recv_ms)

        def act() -> None:
            if not self.host.up:
                return
            if request == "exec":
                proc = self.host.kernel.spawn(
                    uid, payload.get("command", "a.out"),
                    ppid=self.proc.pid, program=payload.get("program"))
                self._reply(endpoint, {"ok": True, "pid": proc.pid})
            elif request == "signal":
                try:
                    self.host.kernel.kill(payload["pid"],
                                          Signal(payload["signal"]),
                                          sender_uid=uid)
                except (NoSuchProcessError, ProcessPermissionError) as exc:
                    self._reply(endpoint, {"ok": False,
                                           "error": str(exc)})
                    return
                self._reply(endpoint, {"ok": True})
            else:
                self._reply(endpoint, {"ok": False,
                                       "error": "bad request"})

        self.host.sim.schedule(cost, act)

    def _reply(self, endpoint, payload: dict) -> None:
        if endpoint.open:
            endpoint.send(payload, nbytes=128,
                          extra_delay_ms=self.host.cpu_cost(
                              self.host.world.cost_model.sibling_send_ms))


def install_rexecd(world) -> None:
    """Start an rexecd on every host."""
    for host in world.hosts.values():
        RexecDaemon(host)


class RexecClient:
    """A user program issuing rexec calls.

    Every call opens a fresh connection, authenticates with the
    password, performs one operation, and closes — the cost structure
    the PPM's maintained, once-authenticated channels eliminate.
    """

    def __init__(self, world, user: str, password: str,
                 home_host: str) -> None:
        self.world = world
        self.user = user
        self.password = password
        self.home_host = home_host
        #: Remote pids this client created — all it can ever signal.
        self.created: List[GlobalPid] = []

    def _call(self, host: str, request: dict,
              timeout_ms: float = 60_000.0) -> dict:
        done = Deferred()

        def established(endpoint) -> None:
            endpoint.on_message = lambda payload, ep: (done.resolve(payload),
                                                       ep.close())

        request = dict(request)
        request.setdefault("user", self.user)
        request.setdefault("password", self.password)
        StreamConnection.connect(
            self.world.network, self.home_host, host, REXEC_SERVICE,
            payload=request,
            setup_ms=self.world.cost_model.connect_ms,
            on_established=established,
            on_failed=lambda reason: done.resolve({"ok": False,
                                                   "error": reason}))
        if not self.world.run_until_true(lambda: done.resolved,
                                         timeout_ms=timeout_ms):
            raise PPMError("rexec call to %s timed out" % (host,))
        return done.value

    def rexec(self, host: str, command: str,
              program: Optional[dict] = None) -> GlobalPid:
        """Create one remote process."""
        reply = self._call(host, {"request": "exec", "command": command,
                                  "program": program})
        if not reply.get("ok"):
            raise PPMError("rexec failed: %s" % (reply.get("error"),))
        gpid = GlobalPid(host, reply["pid"])
        self.created.append(gpid)
        return gpid

    def signal(self, gpid: GlobalPid, signal: Signal) -> bool:
        """Signal one process the caller knows by pid."""
        reply = self._call(gpid.host, {"request": "signal",
                                       "pid": gpid.pid,
                                       "signal": int(signal)})
        return bool(reply.get("ok"))

    def kill_everything_i_know(self) -> List[GlobalPid]:
        """The hunt: signal every pid this client ever created.
        Descendants of those processes are beyond reach."""
        killed = []
        for gpid in self.created:
            if self.signal(gpid, Signal.SIGKILL):
                killed.append(gpid)
        return killed
