"""The Personal Process Manager (PPM) — the paper's contribution.

A PPM is "a distributed program based on a collection of user processes
which make use of specialized system daemons" (abstract).  This package
implements the Local Process Manager (LPM), the message protocol between
siblings, broadcast over the on-demand sibling graph, route caching,
the snapshot and resource-statistics tools, cross-machine process
control, crash recovery with the Crash Coordinator Site, and the
subroutine library tools link against.

Call :func:`install` on a :class:`repro.unixsim.World` to make its pmds
able to create LPMs, then use :class:`repro.core.client.PPMClient` (or
the :class:`repro.core.ppm.PersonalProcessManager` facade) as a tool.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".messages": ("Message", "MsgKind"),
    ".lpm": ("LocalProcessManager", "install"),
    ".snapshot": ("ProcessRecord", "SnapshotForest"),
    ".control": ("ControlAction",),
    ".client": ("PPMClient",),
    ".ppm": ("PersonalProcessManager",),
    ".progspec": ("spinner_spec", "sleeper_spec", "worker_spec",
                  "file_worker_spec", "fork_tree_spec"),
    "..unixsim.programs": ("build_program",),
    ".resilient": ("ResilientComputation", "UnitSpec"),
    ".files_tool": ("open_files_by_process", "render_open_files",
                    "render_closed_files", "render_fd_table",
                    "file_usage_summary"),
})
