"""repro — a reproduction of the Berkeley Personal Process Manager.

"The Administration of Distributed Computations in a Networked
Environment: An Interim Report", Cabrera, Sechrest, Cáceres
(ICDCS 1986).

Quickstart::

    from repro import World, HostClass, PersonalProcessManager, spinner_spec

    world = World(seed=1)
    for name in ("ucbvax", "ucbarpa", "ucbernie"):
        world.add_host(name, HostClass.VAX_780)
    world.ethernet()
    world.add_user("lfc", 1001)

    ppm = PersonalProcessManager(world, "lfc", "ucbvax",
                                 recovery_hosts=["ucbvax", "ucbarpa"])
    ppm.start()
    gpid = ppm.create_process("simulate", host="ucbarpa",
                              program=spinner_spec(60_000.0))
    print(ppm.snapshot())

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from .util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("PPMConfig", "DEFAULT_CONFIG", "KERNEL_MESSAGE_BYTES"),
    ".errors": ("ReproError", "ConfigError", "SimulationError",
                "NoSuchHostError", "HostDownError", "UnreachableHostError",
                "ConnectionClosedError", "NoSuchProcessError",
                "ProcessPermissionError", "AdoptionError",
                "AuthenticationError", "PPMError", "NoLPMError",
                "RequestTimeoutError", "RecoveryError", "RegistryError"),
    ".ids": ("GlobalPid", "BroadcastId", "SessionId"),
    ".latency": ("HostClass", "CostModel", "DEFAULT_COST_MODEL"),
    ".netsim.simulator": ("Simulator",),
    ".unixsim.world": ("World",),
    ".unixsim.host": ("Host",),
    ".unixsim.signals": ("Signal",),
    ".core.messages": ("Message", "MsgKind"),
    ".core.lpm": ("LocalProcessManager", "install"),
    ".core.snapshot": ("ProcessRecord", "SnapshotForest"),
    ".core.control": ("ControlAction",),
    ".core.client": ("PPMClient",),
    ".core.ppm": ("PersonalProcessManager",),
    ".core.progspec": ("spinner_spec", "sleeper_spec", "worker_spec",
                       "file_worker_spec", "fork_tree_spec"),
    ".unixsim.programs": ("build_program",),
    ".core.resilient": ("ResilientComputation", "UnitSpec"),
    ".tracing.events": ("TraceEvent", "TraceEventType", "Granularity"),
    ".tracing.recorder": ("TraceRecorder",),
    ".tracing.history": ("HistoryStore",),
    ".tracing.triggers": ("Trigger", "TriggerEngine"),
})

__version__ = "1.0.0"
