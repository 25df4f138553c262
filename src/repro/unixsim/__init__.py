"""Simulated 4.3BSD substrate.

The paper's PPM runs on enhanced Berkeley UNIX hosts: it adopts processes
through an extended ``ptrace``, receives kernel event messages from
modified system calls, and is bootstrapped by the ``inetd`` and ``pmd``
system daemons.  This package simulates exactly that surface — process
tables, fork/exec/exit/signals, run-queue load averages, home-directory
files (``.recovery``, ``.rhosts``), user accounts, and the two daemons —
on top of :mod:`repro.netsim`.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".signals": ("Signal", "SignalAction", "default_action"),
    ".process": ("Process", "ProcState", "Rusage", "TraceFlag"),
    ".proctable": ("ProcessTable",),
    ".loadavg": ("LoadAverage",),
    ".filesystem": ("SimFilesystem",),
    ".users": ("UserAccount", "UserRegistry"),
    ".kernel": ("Kernel", "KernelMessage", "KernelEvent"),
    ".programs": ("Program", "SpinnerProgram", "SleeperProgram",
                  "WorkerProgram", "FileWorkerProgram", "ForkTreeProgram",
                  "EchoProgram", "TalkerProgram"),
    ".ipc": ("UserChannel", "UserIpc"),
    ".inetd": ("InetDaemon",),
    ".nameserver": ("CcsNameServer",),
    ".pmd": ("ProcessManagerDaemon",),
    ".host": ("Host",),
    ".world": ("World",),
})
