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

from .messages import Message, MsgKind
from .lpm import LocalProcessManager, install
from .snapshot import ProcessRecord, SnapshotForest
from .control import ControlAction
from .client import PPMClient
from .ppm import PersonalProcessManager
from .progspec import (
    build_program,
    spinner_spec,
    sleeper_spec,
    worker_spec,
    file_worker_spec,
    fork_tree_spec,
)
from .resilient import ResilientComputation, UnitSpec
from .files_tool import (
    open_files_by_process,
    render_open_files,
    render_closed_files,
    render_fd_table,
    file_usage_summary,
)

__all__ = [
    "Message",
    "MsgKind",
    "LocalProcessManager",
    "install",
    "ProcessRecord",
    "SnapshotForest",
    "ControlAction",
    "PPMClient",
    "PersonalProcessManager",
    "build_program",
    "spinner_spec",
    "sleeper_spec",
    "worker_spec",
    "file_worker_spec",
    "fork_tree_spec",
    "ResilientComputation",
    "UnitSpec",
    "open_files_by_process",
    "render_open_files",
    "render_closed_files",
    "render_fd_table",
    "file_usage_summary",
]
