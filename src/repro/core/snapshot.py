"""Snapshots: the genealogical state of a distributed computation.

"A computation is considered to be a group of processes that have a
common logical ancestor.  Under the PPM the processes form a (logical)
tree that may span a number of machines.  Under some failure modes this
tree may become a forest." (section 2)

:class:`ProcessRecord` is what each LPM reports for one process —
identified network-wide by ``<host, pid>``; :class:`SnapshotForest`
merges records from every reachable LPM, rebuilds the genealogy, marks
exited processes that still have living descendants, and degrades to a
forest when hosts are missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ids import GlobalPid


@dataclass
class ProcessRecord:
    """One process as an LPM knows it.

    ``state`` is a plain string so records serialise: one of
    ``running``, ``sleeping``, ``stopped``, ``exited``.
    """

    gpid: GlobalPid
    parent: Optional[GlobalPid]
    user: str
    command: str
    state: str
    start_ms: float
    end_ms: Optional[float] = None
    exit_status: Optional[int] = None
    foreground: bool = True
    rusage: dict = field(default_factory=dict)
    #: Currently open files: dicts of fd/path/mode/opened_ms (the
    #: section 7 file-descriptor tool reads these).
    open_files: list = field(default_factory=list)
    #: Recently closed files: dicts of path/mode/opened_ms/closed_ms.
    closed_files: list = field(default_factory=list)

    @property
    def exited(self) -> bool:
        return self.state == "exited"

    def to_dict(self) -> dict:
        return {
            "host": self.gpid.host, "pid": self.gpid.pid,
            "parent": [self.parent.host, self.parent.pid]
                      if self.parent is not None else None,
            "user": self.user, "command": self.command, "state": self.state,
            "start_ms": self.start_ms, "end_ms": self.end_ms,
            "exit_status": self.exit_status, "foreground": self.foreground,
            "rusage": self.rusage,
            "open_files": self.open_files,
            "closed_files": self.closed_files,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessRecord":
        parent = data.get("parent")
        return cls(
            gpid=GlobalPid(data["host"], data["pid"]),
            parent=GlobalPid(parent[0], parent[1]) if parent else None,
            user=data["user"], command=data["command"], state=data["state"],
            start_ms=data["start_ms"], end_ms=data.get("end_ms"),
            exit_status=data.get("exit_status"),
            foreground=data.get("foreground", True),
            rusage=data.get("rusage", {}),
            open_files=list(data.get("open_files", [])),
            closed_files=list(data.get("closed_files", [])))


class SnapshotForest:
    """The merged genealogical snapshot presented to the user."""

    def __init__(self, taken_at_ms: float,
                 records: Optional[List[ProcessRecord]] = None,
                 missing_hosts: Optional[Set[str]] = None) -> None:
        self.taken_at_ms = taken_at_ms
        self.records: Dict[GlobalPid, ProcessRecord] = {}
        self.missing_hosts: Set[str] = set(missing_hosts or ())
        self._children: Dict[GlobalPid, List[GlobalPid]] = {}
        for record in records or []:
            self.add(record)

    def add(self, record: ProcessRecord) -> None:
        self.records[record.gpid] = record
        self._children = {}  # invalidate

    def _child_index(self) -> Dict[GlobalPid, List[GlobalPid]]:
        if not self._children and self.records:
            index: Dict[GlobalPid, List[GlobalPid]] = {}
            for gpid, record in self.records.items():
                if record.parent is not None and record.parent in self.records:
                    index.setdefault(record.parent, []).append(gpid)
            for children in index.values():
                children.sort()
            self._children = index
        return self._children

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def roots(self) -> List[GlobalPid]:
        """Processes with no known parent in the snapshot.  More than
        one root means the tree has become a forest."""
        return sorted(gpid for gpid, record in self.records.items()
                      if record.parent is None
                      or record.parent not in self.records)

    def children(self, gpid: GlobalPid) -> List[GlobalPid]:
        return list(self._child_index().get(gpid, []))

    def descendants(self, gpid: GlobalPid) -> List[GlobalPid]:
        result: List[GlobalPid] = []
        stack = self.children(gpid)
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children(current))
        return sorted(result)

    def subtree_hosts(self, gpid: GlobalPid) -> Set[str]:
        """Execution sites of a computation rooted at ``gpid`` — the
        "locating the execution sites" facility of section 1."""
        hosts = {gpid.host}
        hosts.update(d.host for d in self.descendants(gpid))
        return hosts

    def is_forest(self) -> bool:
        return len(self.roots()) > 1

    def by_host(self, host: str) -> List[ProcessRecord]:
        return sorted((r for r in self.records.values()
                       if r.gpid.host == host),
                      key=lambda r: r.gpid)

    def hosts(self) -> Set[str]:
        return {gpid.host for gpid in self.records}

    # ------------------------------------------------------------------
    # Exit retention (section 2)
    # ------------------------------------------------------------------

    def prune_exited_leaves(self) -> "SnapshotForest":
        """Drop exited processes with no living descendants, keeping
        exited interior nodes — exactly the paper's retention rule:
        "we chose to retain exit information while there are children
        alive ... we mark the process as exited"."""
        keep: Set[GlobalPid] = set()

        def has_live_descendant(gpid: GlobalPid) -> bool:
            record = self.records[gpid]
            live_here = not record.exited
            for child in self.children(gpid):
                if has_live_descendant(child):
                    live_here = True
            if live_here:
                keep.add(gpid)
            return live_here

        for root in self.roots():
            has_live_descendant(root)
        pruned = SnapshotForest(self.taken_at_ms,
                                missing_hosts=set(self.missing_hosts))
        for gpid in keep:
            pruned.add(self.records[gpid])
        return pruned

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, gpid: GlobalPid) -> bool:
        return gpid in self.records

    def __repr__(self) -> str:
        return "SnapshotForest(%d records, %d roots%s)" % (
            len(self.records), len(self.roots()),
            ", missing %s" % sorted(self.missing_hosts)
            if self.missing_hosts else "")
