"""One simulated machine: kernel + filesystem + accounts + daemons."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..latency import HostClass, load_factor
from ..tracing.events import TraceEventType
from .filesystem import SimFilesystem
from .inetd import InetDaemon
from .kernel import Kernel
from .pmd import ProcessManagerDaemon
from .process import Process
from .users import UserAccount, UserRegistry


class Host:
    """A machine with explicit boundaries, as the paper assumes.

    The disk (:attr:`fs`) and the password file (:attr:`users`) survive
    crashes; the kernel, every process, and the daemons do not.
    """

    def __init__(self, world, name: str, host_class: HostClass) -> None:
        self.world = world
        self.sim = world.sim
        self.name = name
        self.host_class = host_class
        self.node = world.network.add_node(name, host_class)
        self.fs = SimFilesystem()
        self.users = UserRegistry()
        self.kernel = Kernel(self.sim, name, host_class)
        self.kernel.host = self
        self.node.load_fn = self.load_average
        self.inetd = InetDaemon(self)
        self.pmd_daemon: Optional[ProcessManagerDaemon] = None
        self.crash_count = 0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def up(self) -> bool:
        return self.node.up

    def load_average(self) -> float:
        if not self.up:
            return 0.0
        return self.kernel.loadavg.value()

    def cpu_cost(self, base_ms: float) -> float:
        """Scale a CPU-bound cost by this host's class and current load."""
        return base_ms * load_factor(self.host_class, self.load_average())

    def trace(self, event_type: TraceEventType, user: str = "",
              gpid=None, **details) -> None:
        """Record into the world's trace log with this host's identity."""
        self.world.recorder.record(event_type, host=self.name, user=user,
                                   gpid=gpid, **details)

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------

    def add_account(self, account: UserAccount) -> None:
        self.users.add(account)
        home = self.fs.home_of(account.name)
        if not self.fs.exists(home):
            self.fs.write(home, "")  # directory marker

    def uid_of(self, user: str) -> int:
        return self.users.require(user).uid

    def read_recovery_file(self, user: str) -> List[str]:
        return self.fs.read_recovery_file(user)

    # ------------------------------------------------------------------
    # Services (an LPM's accept socket)
    # ------------------------------------------------------------------

    def listen(self, service: str, acceptor: Callable) -> None:
        self.node.listen(service, acceptor)

    def unlisten(self, service: str) -> None:
        self.node.unlisten(service)

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------

    def ensure_pmd(self) -> ProcessManagerDaemon:
        """The pmd is created on demand and stays while LPMs exist."""
        if self.pmd_daemon is None or not self.pmd_daemon.proc.alive:
            self.pmd_daemon = ProcessManagerDaemon(self)
        return self.pmd_daemon

    def forget_lpm(self, user: str) -> None:
        """Drop the pmd's record of the user's LPM (it exited)."""
        if self.pmd_daemon is not None:
            self.pmd_daemon.forget(user)

    # ------------------------------------------------------------------
    # User processes
    # ------------------------------------------------------------------

    def spawn_user_process(self, user: str, command: str,
                           args: Tuple[str, ...] = (), program=None,
                           ppid: Optional[int] = None,
                           foreground: bool = True) -> Process:
        """Start a process for a named account (a login shell's child)."""
        uid = self.uid_of(user)
        return self.kernel.spawn(uid, command, args, program=program,
                                 ppid=ppid if ppid is not None else 1,
                                 foreground=foreground)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: processes vanish, the network notices, the disk
        survives."""
        if not self.up:
            return
        self.crash_count += 1
        self.kernel.halt()
        self.pmd_daemon = None
        self.node.services.clear()
        self.world.network.crash_host(self.name)

    def reboot(self) -> None:
        """Bring the machine back with a fresh kernel and daemons."""
        if self.up:
            return
        self.kernel = Kernel(self.sim, self.name, self.host_class)
        self.kernel.host = self
        self.node.load_fn = self.load_average
        self.world.network.revive_host(self.name)
        self.inetd = InetDaemon(self)
        self.pmd_daemon = None

    def __repr__(self) -> str:
        return "Host(%s, %s, %s)" % (self.name, self.host_class.value,
                                     "up" if self.up else "DOWN")
