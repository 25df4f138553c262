"""Real-operating-system backend.

The paper's repro band today: the single-host slice of the PPM needs
nothing beyond ``subprocess`` and signals.  This package drives *real*
processes on the local Linux machine with the same concepts and data
model as the simulator — creation as a managed server, control by
signal, genealogy from ``/proc`` (the Killian "processes as files"
approach the paper cites as the elegant alternative, section 6), exit
records retained while children live.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".procfs": ("ProcStat", "read_stat", "children_map", "descendants"),
    ".backend": ("RealBackend", "ManagedProcess"),
})
