"""Baseline mechanisms the paper measures the PPM against.

Section 1: "Controlling a pipeline requires only the ability to control
the shell's direct children, which is all that is provided in the UNIX
C-shell" — :mod:`repro.baselines.csh`.

Section 6: "we learned from the limitations of the rexec facility
present in 4.2BSD ... since the rexec call is made directly from a user
process to a remote daemon, the shell's process control facilities do
not affect the remote processes.  Remote processes must therefore be
explicitly hunted for and signalled" — :mod:`repro.baselines.rexec`.

Both run against the same simulated substrate as the PPM, so the
comparison benchmarks measure exactly the gap the paper claims the PPM
closes: control coverage over arbitrary genealogies, and the cost of
per-operation connections versus maintained channels.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".csh": ("CshJobControl",),
    ".rexec": ("RexecClient", "RexecDaemon", "install_rexecd"),
})
