"""Tunable parameters of the PPM.

The paper leaves several knobs open as configuration parameters: the
time-to-live of an idle LPM (section 3), the time window for retaining old
broadcast requests (section 4), the time-to-die interval of an LPM that
cannot reach any recovery host (section 5), and the low probing frequency
with which a stand-in crash coordinator checks hosts higher on the recovery
list (section 5).  :class:`PPMConfig` gathers them with defaults sized for
the simulated workloads; everything is in simulated milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigError

#: Size in bytes of the kernel-to-LPM event message measured in Table 1.
KERNEL_MESSAGE_BYTES = 112


@dataclass(frozen=True)
class PPMConfig:
    """Configuration shared by the LPMs of one personal process manager."""

    #: How long an LPM lingers on a host that no longer runs any of its
    #: user's processes (section 3: "LPMs have a time-to-live period").
    lpm_time_to_live_ms: float = 600_000.0

    #: How long an LPM that cannot reach any recovery-list host keeps its
    #: user's processes alive before terminating them and exiting
    #: (section 5: the time-to-die interval).
    time_to_die_ms: float = 900_000.0

    #: Retention window for signed broadcast timestamps (section 4: "the
    #: appropriate time window for retaining old broadcast requests is a
    #: configuration parameter").
    broadcast_dedup_window_ms: float = 60_000.0

    #: Low-frequency probe interval used by a stand-in CCS to test hosts
    #: higher on the recovery list (section 5).
    ccs_probe_interval_ms: float = 30_000.0

    #: Interval between an orphaned LPM's attempts to reach a CCS before
    #: its time-to-die expires (section 5: "resumes the normal mode of
    #: operation if it manages to connect to the CCS at any future retry").
    recovery_retry_interval_ms: float = 10_000.0

    #: How long a broken stream goes unnoticed before the surviving end is
    #: told (TCP keepalive-style detection).
    connection_detect_ms: float = 2_000.0

    #: Maximum handler processes an LPM dispatcher keeps around; handlers
    #: are reused because "process creation in UNIX is relatively
    #: expensive" (section 6).
    handler_pool_max: int = 8

    #: How long a handler waits for a remote response before reporting
    #: failure to the dispatcher (section 6).
    request_timeout_ms: float = 30_000.0

    #: Sibling-graph policy: ``"on_demand"`` opens connections only when
    #: needed (the paper's design); ``"full_mesh"`` keeps all pairs
    #: connected (the A3 ablation); ``"sparse"`` maintains a
    #: bounded-degree ring-plus-chords overlay (with per-source
    #: broadcast trees and cache-first LOCATE) so sessions scale past
    #: ~100 hosts with O(n·k) links instead of O(n²).
    topology_policy: str = "on_demand"

    #: Target degree of the ``"sparse"`` overlay (ring plus chords;
    #: each LPM keeps about this many overlay links).
    sparse_degree: int = 6

    #: Transport between sibling LPMs: ``"stream"`` (the paper's TCP
    #: virtual circuits) or ``"datagram"`` (the scalability alternative
    #: discussed in section 3; per-message authentication, no kept
    #: connections, ARQ reliability).
    transport: str = "stream"

    #: Whether co-located LPMs of *different* users share one physical
    #: inter-host circuit per host pair (multi-tenant mode): the first
    #: LPM to need ``(host_a, host_b)`` opens the circuit, later LPMs
    #: attach per-user lanes demultiplexed by ``Message.lane``.  Off by
    #: default — single-tenant runs stay byte-identical on the wire.
    #: Only meaningful with the ``"stream"`` transport.
    circuit_sharing: bool = False

    #: Datagram-transport retransmission timeout and retry budget.
    datagram_rto_ms: float = 400.0
    datagram_max_retries: int = 5

    #: Where the crash coordinator comes from: ``"recovery_file"`` (the
    #: paper's implemented design, section 5) or ``"name_server"`` (the
    #: alternative section 5 sketches: "LPMs would query the name server
    #: for a CCS.  The mechanism based on .recovery files would not be
    #: needed").
    ccs_source: str = "recovery_file"

    #: Host running the CCS name server when ``ccs_source`` selects it.
    name_server_host: Optional[str] = None

    #: Whether the process manager daemon persists its LPM registry to
    #: (simulated) stable storage.  The paper describes this as a possible
    #: but unimplemented improvement that "would certainly add to the
    #: overhead of creating LPMs" (section 5).
    pmd_stable_storage: bool = False

    def __post_init__(self) -> None:
        if self.lpm_time_to_live_ms <= 0:
            raise ConfigError("lpm_time_to_live_ms must be positive")
        if self.time_to_die_ms <= 0:
            raise ConfigError("time_to_die_ms must be positive")
        if self.broadcast_dedup_window_ms < 0:
            raise ConfigError("broadcast_dedup_window_ms must be >= 0")
        if self.ccs_probe_interval_ms <= 0:
            raise ConfigError("ccs_probe_interval_ms must be positive")
        if self.recovery_retry_interval_ms <= 0:
            raise ConfigError("recovery_retry_interval_ms must be positive")
        if self.handler_pool_max < 1:
            raise ConfigError("handler_pool_max must be at least 1")
        if self.request_timeout_ms <= 0:
            raise ConfigError("request_timeout_ms must be positive")
        if self.topology_policy not in ("on_demand", "full_mesh",
                                        "sparse"):
            raise ConfigError(
                "topology_policy must be 'on_demand', 'full_mesh', or "
                "'sparse', got %r" % (self.topology_policy,))
        if self.sparse_degree < 2:
            raise ConfigError("sparse_degree must be at least 2")
        if self.transport not in ("stream", "datagram"):
            raise ConfigError(
                "transport must be 'stream' or 'datagram', got %r"
                % (self.transport,))
        if self.ccs_source not in ("recovery_file", "name_server"):
            raise ConfigError(
                "ccs_source must be 'recovery_file' or 'name_server', "
                "got %r" % (self.ccs_source,))
        if self.ccs_source == "name_server" and not self.name_server_host:
            raise ConfigError(
                "ccs_source='name_server' requires name_server_host")

    def with_overrides(self, **kwargs) -> "PPMConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Shared default configuration.
DEFAULT_CONFIG = PPMConfig()
