"""Reading genealogy and state from ``/proc``.

Section 6 discusses the ``/proc`` "processes as files" mechanism as an
elegant alternative the authors would have used for message delivery;
here it supplies what the simulated kernel's event messages supply in
:mod:`repro.unixsim`: process state and parent links.

This module is the only place in ``repro`` that opens ``/proc``
(``tools/check_layering.py`` rule 10), and it reads every file through
raw ``os.open``/``os.read``: a buffered file object costs twice the
read.  A caller that scans repeatedly passes :func:`children_map` a
memory of the previous scan, so a scan reads the stat of a process
only when it is new to ``/proc`` or has lost its parent — the scan's
cost follows the churn, not the number of processes on the machine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: /proc stat state letters -> the record states used by snapshots.
_STATE_NAMES = {
    "R": "running",
    "S": "sleeping",
    "D": "sleeping",   # uninterruptible sleep
    "I": "sleeping",   # idle kernel thread
    "T": "stopped",
    "t": "stopped",    # tracing stop
    "Z": "exited",
    "X": "exited",
}

#: One ``os.read`` of this size returns a whole stat line (about 52
#: numbers); longer files (a command line) take more reads.
_READ_BYTES = 4096

#: What opening or reading a process's file raises once it is gone.
_GONE = (FileNotFoundError, ProcessLookupError, PermissionError)


@dataclass(frozen=True)
class ProcStat:
    """The fields of ``/proc/<pid>/stat`` the backend needs."""

    pid: int
    command: str
    state: str
    ppid: int
    utime_ticks: int
    stime_ticks: int
    #: Clock ticks from boot to the process's start (stat field 22).
    start_ticks: int

    @property
    def utime_ms(self) -> float:
        hertz = os.sysconf("SC_CLK_TCK")
        return 1000.0 * self.utime_ticks / hertz

    @property
    def stime_ms(self) -> float:
        hertz = os.sysconf("SC_CLK_TCK")
        return 1000.0 * self.stime_ticks / hertz

    @property
    def started_at(self) -> float:
        """When the process started, in ``time.time()`` seconds (to
        the clock tick); the kernel counts it from boot."""
        boot_epoch = time.time() - time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot_epoch + self.start_ticks / os.sysconf("SC_CLK_TCK")


def _read(path: str) -> Optional[bytes]:
    """The contents of one ``/proc`` file; None when the process it
    describes is gone."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except _GONE:
        return None
    try:
        data = chunk = os.read(fd, _READ_BYTES)
        while len(chunk) == _READ_BYTES:
            chunk = os.read(fd, _READ_BYTES)
            data += chunk
        return data
    except _GONE:
        return None
    finally:
        os.close(fd)


def read_stat(pid: int) -> Optional[ProcStat]:
    """Parse ``/proc/<pid>/stat``; None when the process is gone."""
    data = _read("/proc/%d/stat" % pid)
    if data is None:
        return None
    raw = data.decode("ascii", "replace")
    # The command is parenthesised and may contain spaces/parens; split
    # around the *last* closing paren.
    open_paren = raw.index("(")
    close_paren = raw.rindex(")")
    command = raw[open_paren + 1:close_paren]
    fields = raw[close_paren + 2:].split()
    # fields[0] is stat field 3 (the state letter), so field N is
    # fields[N - 3]: ppid 4, utime 14, stime 15, starttime 22.
    return ProcStat(pid=pid, command=command,
                    state=_STATE_NAMES.get(fields[0], "running"),
                    ppid=int(fields[1]),
                    utime_ticks=int(fields[11]),
                    stime_ticks=int(fields[12]),
                    start_ticks=int(fields[19]))


#: Tag embedded in the argv of every default child the realnet LPM
#: spawns, so an orphan scan can recognise PPM-created processes after
#: the serve process that owned them is gone.
ORPHAN_MARKER = "repro-ppm-child"


def find_marked_orphans(marker: str = ORPHAN_MARKER) -> List[dict]:
    """PPM-created processes whose manager died.

    A process counts as orphaned when its command line carries the
    spawn ``marker`` and it has been reparented to init — exactly what
    a SIGKILLed serve process leaves behind: the managed children keep
    running with nobody administering them.
    """
    orphans: List[dict] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        data = _read("/proc/%d/cmdline" % pid)
        if data is None:
            continue
        cmdline = data.replace(b"\0", b" ").decode("utf-8", "replace")
        if marker not in cmdline:
            continue
        stat = read_stat(pid)
        if stat is None or stat.state == "exited":
            continue
        if stat.ppid == 1:
            orphans.append({"pid": pid, "command": stat.command,
                            "cmdline": cmdline.strip()})
    return orphans


def children_map(known: Optional[Dict[Tuple[int, int], int]] = None
                 ) -> Dict[int, List[int]]:
    """Map every ppid -> child pids, from one /proc scan.

    Without ``known`` every process's stat is read.  ``known`` is the
    caller's memory of the previous scan, ``{(pid, inode of
    /proc/<pid>): ppid}``, brought up to date in place.  The inode
    names the process, not the pid: a pid the kernel hands to a new
    process gets a fresh ``/proc/<pid>`` inode, so a reused pid is never
    mistaken for the process it replaced and is always read.  (An inode
    rebuilt for the same process after its dentry was evicted costs one
    extra read, nothing more.)  A remembered ppid is taken without a
    read while its parent is still the process it was at the previous
    scan; once the parent is gone the child may have been reparented,
    so it is read again.  In steady state a scan therefore reads the
    stat of new processes only.
    """
    with os.scandir("/proc") as entries:
        listing = [(int(entry.name), entry.inode()) for entry in entries
                   if entry.name.isdigit()]
    previous = known if known is not None else {}
    inode_of = dict(listing)
    current: Dict[Tuple[int, int], int] = {}
    result: Dict[int, List[int]] = {}
    for key in listing:
        ppid = previous.get(key)
        # ppid 0 (no parent in this pid namespace) never changes.
        if ppid is None or (ppid and (ppid, inode_of.get(ppid))
                            not in previous):
            stat = read_stat(key[0])
            if stat is None:
                continue
            ppid = stat.ppid
        current[key] = ppid
        result.setdefault(ppid, []).append(key[0])
    if known is not None:
        known.clear()
        known.update(current)
    return result


def descendants(root_pid: int,
                child_index: Optional[Dict[int, List[int]]] = None
                ) -> List[int]:
    """All live descendants of ``root_pid`` (excluding the root)."""
    index = child_index if child_index is not None else children_map()
    seen: Set[int] = set()
    stack = list(index.get(root_pid, []))
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        stack.extend(index.get(pid, []))
    return sorted(seen)
