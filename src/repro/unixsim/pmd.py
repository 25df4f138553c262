"""The process manager daemon (pmd).

"The process manager daemon is present in an installation as long as
there is any LPM present.  It serves as a trusted name server for the
creation of LPMs" (section 3).  It guarantees at most one LPM per user
per host, hands out accept addresses (with the per-session token that
authenticated channels verify), and — optionally — persists its registry
to stable storage, the improvement section 5 describes but the authors
did not implement: "if the process manager daemon loses information
about a LPM currently active in the host, then the process management
mechanism does not operate correctly."  Both modes exist here so the
failure and the fix can be demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import AuthenticationError
from ..perf import PERF
from ..tracing.events import TraceEventType
from ..util import Deferred
from .process import ProcState
from .users import rhosts_permits

#: Stable-storage path for the registry.
STATE_PATH = "/etc/pmd.state"

#: Extra cost charged to LPM creation when stable storage is on.
STABLE_STORAGE_WRITE_MS = 45.0


@dataclass
class LpmRecord:
    """One registry entry: where a user's LPM accepts connections."""

    user: str
    pid: int
    accept_service: str
    token: str

    def to_line(self) -> str:
        return "%s %d %s %s" % (self.user, self.pid, self.accept_service,
                                self.token)

    @classmethod
    def from_line(cls, line: str) -> Optional["LpmRecord"]:
        parts = line.split()
        if len(parts) != 4:
            return None
        return cls(user=parts[0], pid=int(parts[1]), accept_service=parts[2],
                   token=parts[3])


class ProcessManagerDaemon:
    """Trusted name server for LPM creation on one host."""

    def __init__(self, host, stable_storage: Optional[bool] = None) -> None:
        self.host = host
        if stable_storage is None:
            stable_storage = host.world.config.pmd_stable_storage
        self.stable_storage = stable_storage
        self.proc = host.kernel.spawn(0, "pmd", state=ProcState.SLEEPING)
        self._registry: Dict[str, LpmRecord] = {}
        self.creations = 0
        self.lookups = 0
        #: Positive-result authentication cache, ``(user, origin_host,
        #: origin_user) -> incarnation``.  A login wave dials every
        #: sibling pair through this daemon; without the cache each
        #: dial re-reads ``.rhosts`` and re-compares password files.
        #: The incarnation key (local fs + password-file versions, plus
        #: the origin host's password-file version) invalidates the
        #: entry the moment any input to the decision can have changed.
        #: In-memory only: it dies with the daemon, like the registry.
        self._auth_cache: Dict[tuple, tuple] = {}
        if self.stable_storage:
            self._reload_registry()

    # ------------------------------------------------------------------
    # The name-server interface
    # ------------------------------------------------------------------

    def get_or_create_lpm(self, user: str, origin_host: str,
                          origin_user: str) -> Deferred:
        """Steps (3)/(4) of Figure 2.

        Verifies "that there is no LPM for that user in that host"; if one
        exists its accept address is returned, otherwise an LPM is
        created.  Resolves to the reply dict sent back by inetd.
        """
        self._authenticate(user, origin_host, origin_user)
        done = Deferred()
        record = self._live_record(user)
        if record is not None:
            self.lookups += 1
            done.resolve({"ok": True, "created": False, "user": user,
                          "lpm_host": self.host.name,
                          "accept_service": record.accept_service,
                          "token": record.token})
            return done
        # Create the LPM: expensive "in terms of message exchanges and in
        # local processing" (section 3), plus the optional stable write.
        cost = self.host.cpu_cost(self.host.world.cost_model.lpm_spawn_ms)
        if self.stable_storage:
            cost += STABLE_STORAGE_WRITE_MS
        self.host.sim.schedule(cost, self._create_lpm, user, done)
        return done

    def _create_lpm(self, user: str, done: Deferred) -> None:
        if not self.host.up:
            return
        existing = self._live_record(user)
        if existing is not None:  # lost a race with a concurrent request
            done.resolve({"ok": True, "created": False, "user": user,
                          "lpm_host": self.host.name,
                          "accept_service": existing.accept_service,
                          "token": existing.token})
            return
        factory = self.host.world.lpm_factory
        if factory is None:
            done.resolve({"ok": False,
                          "error": "no LPM implementation installed"})
            return
        # Deterministic token drawn from the seeded simulation RNG.
        token = "%016x" % self.host.sim.rng.getrandbits(64)
        lpm = factory(self.host, user, token)
        record = LpmRecord(user=user, pid=lpm.proc.pid,
                           accept_service=lpm.accept_service, token=token)
        self._registry[user] = record
        self.creations += 1
        if self.stable_storage:
            self._persist_registry()
        self.host.trace(TraceEventType.CREATION_STEP, step=3, actor="pmd",
                        detail="LPM created (pid %d)" % (lpm.proc.pid,),
                        user=user)
        done.resolve({"ok": True, "created": True, "user": user,
                      "lpm_host": self.host.name,
                      "accept_service": record.accept_service,
                      "token": token})

    def forget(self, user: str) -> None:
        """Remove a user's record (called when their LPM exits)."""
        if user in self._registry:
            del self._registry[user]
            if self.stable_storage:
                self._persist_registry()

    def knows(self, user: str) -> bool:
        return self._live_record(user) is not None

    def record_for(self, user: str) -> Optional[LpmRecord]:
        return self._live_record(user)

    # ------------------------------------------------------------------
    # Authentication (user level only; host masquerade is out of scope,
    # exactly as in the paper)
    # ------------------------------------------------------------------

    def _auth_incarnation(self, origin_host: str) -> tuple:
        """Versions of everything :meth:`_authenticate` consults."""
        origin = self.host.world.hosts.get(origin_host)
        return (self.host.fs.version, self.host.users.version,
                None if origin is None else origin.users.version)

    def _authenticate(self, user: str, origin_host: str,
                      origin_user: str) -> None:
        key = (user, origin_host, origin_user)
        incarnation = self._auth_incarnation(origin_host)
        if self._auth_cache.get(key) == incarnation:
            PERF.auth_cache_hits += 1
            return
        self._authenticate_uncached(user, origin_host, origin_user)
        # Only positive verdicts are memoised; failures stay cheap to
        # retry and must never mask a just-granted permission.
        self._auth_cache[key] = incarnation

    def _authenticate_uncached(self, user: str, origin_host: str,
                               origin_user: str) -> None:
        account = self.host.users.lookup(user)
        if account is None:
            raise AuthenticationError(
                "no account for %r on %s" % (user, self.host.name))
        if origin_host == self.host.name and origin_user == user:
            return  # local request by the user personally
        if origin_user == user:
            origin = self.host.world.hosts.get(origin_host)
            if origin is not None and self.host.users.consistent_with(
                    origin.users, user):
                return  # consistent password files across trusting hosts
        entries = self.host.fs.read_rhosts(user)
        if rhosts_permits(entries, origin_host, origin_user, user):
            return
        raise AuthenticationError(
            "%s@%s may not act as %s on %s"
            % (origin_user, origin_host, user, self.host.name))

    # ------------------------------------------------------------------
    # Failure modes and stable storage (section 5)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """The daemon dies.  Without stable storage its knowledge of the
        live LPMs dies with it; the host notices and restarts it empty."""
        if self.proc.alive:
            self.host.kernel.exit(self.proc.pid, status=1)
        self.host.pmd_daemon = None

    def _persist_registry(self) -> None:
        lines = [record.to_line() for record in self._registry.values()]
        self.host.fs.write(STATE_PATH, "\n".join(lines) + "\n")

    def _reload_registry(self) -> None:
        content = self.host.fs.read(STATE_PATH)
        if content is None:
            return
        for line in content.splitlines():
            record = LpmRecord.from_line(line)
            if record is None:
                continue
            # Only resurrect entries whose LPM process is still alive.
            proc = self.host.kernel.procs.find(record.pid)
            if proc is not None and proc.alive and proc.command == "lpm":
                self._registry[record.user] = record

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _live_record(self, user: str) -> Optional[LpmRecord]:
        record = self._registry.get(user)
        if record is None:
            return None
        proc = self.host.kernel.procs.find(record.pid)
        if proc is None or not proc.alive:
            del self._registry[user]
            if self.stable_storage:
                self._persist_registry()
            return None
        return record
