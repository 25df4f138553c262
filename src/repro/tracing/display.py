"""Text renderers — the data-representation tools.

The paper's figures are architecture drawings; these renderers
regenerate them from live system state:

* :func:`render_forest` — Figure 1, the genealogical snapshot of a PPM
  spanning hosts (exited processes marked, forests allowed);
* :func:`render_creation_steps` — Figure 2, the four LPM creation steps;
* :func:`render_topology` — Figures 3 and 5, the LPM connection graphs;
* :func:`render_endpoints` — Figure 4, an LPM's communication end points;
* :func:`render_timeline` — a trace-history view for the history tools.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .events import TraceEvent, TraceEventType


def render_forest(forest) -> str:
    """ASCII genealogy of a snapshot (duck-typed to
    :class:`repro.core.snapshot.SnapshotForest`).

    Processes are identified by ``<host, pid>`` exactly as in Figure 5;
    exited processes whose children live on are marked ``(exited)``
    (section 2: "for the display of a genealogical distributed
    computation snapshot we mark the process as exited").
    """
    lines: List[str] = []
    lines.append("snapshot at %.1f ms" % (forest.taken_at_ms,))
    if forest.missing_hosts:
        lines.append("  (no information from: %s)"
                     % ", ".join(sorted(forest.missing_hosts)))

    def walk(gpid, prefix: str, is_last: bool) -> None:
        record = forest.records[gpid]
        connector = "`-- " if is_last else "|-- "
        marker = ""
        if record.state == "exited":
            marker = " (exited)"
        elif record.state == "stopped":
            marker = " (stopped)"
        lines.append("%s%s%s %s%s" % (prefix, connector, gpid,
                                      record.command, marker))
        children = forest.children(gpid)
        child_prefix = prefix + ("    " if is_last else "|   ")
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1)

    roots = forest.roots()
    for index, root in enumerate(roots):
        walk(root, "", index == len(roots) - 1)
    if not roots:
        lines.append("  (no processes)")
    return "\n".join(lines)


def render_topology(title: str, hosts: Sequence[str],
                    edges: Iterable[tuple]) -> str:
    """Adjacency rendering of an LPM interconnection graph."""
    lines = [title]
    edge_set = {frozenset(edge) for edge in edges}
    for host in hosts:
        neighbors = sorted(other for other in hosts if other != host
                           and frozenset((host, other)) in edge_set)
        lines.append("  %-12s -- %s" % (host,
                                        ", ".join(neighbors) or "(none)"))
    return "\n".join(lines)


def render_endpoints(lpm_description: Dict) -> str:
    """Figure 4: the three groups of LPM communication end points —
    the kernel socket, the accept socket, and the per-peer sockets for
    sibling LPMs and local tools."""
    lines = ["LPM %s@%s communication end points:"
             % (lpm_description["user"], lpm_description["host"])]
    lines.append("  kernel socket : %s" % (lpm_description["kernel_socket"],))
    lines.append("  accept socket : %s" % (lpm_description["accept_socket"],))
    siblings = lpm_description.get("sibling_sockets", [])
    tools = lpm_description.get("tool_sockets", [])
    lines.append("  sibling sockets (%d): %s"
                 % (len(siblings), ", ".join(siblings) or "(none)"))
    lines.append("  tool sockets (%d): %s"
                 % (len(tools), ", ".join(tools) or "(none)"))
    return "\n".join(lines)


def render_creation_steps(events: List[TraceEvent]) -> str:
    """Figure 2: LPM creation steps ab initio, from CREATION_STEP events."""
    lines = ["LPM creation ab initio:"]
    steps = [event for event in events
             if event.event_type is TraceEventType.CREATION_STEP]
    for event in sorted(steps, key=lambda e: (e.time_ms,
                                              e.details.get("step", 0))):
        lines.append("  (%d) [%8.1f ms] %-6s %s"
                     % (event.details.get("step", 0), event.time_ms,
                        event.details.get("actor", "?"),
                        event.details.get("detail", "")))
    return "\n".join(lines)


#: Gantt glyphs per process state.
_GANTT_GLYPHS = {"running": "=", "stopped": ".", "exited": " "}


def state_intervals(events: List[TraceEvent], until_ms: float):
    """Reconstruct per-process state intervals from a trace history.

    Returns ``{gpid: [(start_ms, end_ms, state), ...]}`` where state is
    ``running`` or ``stopped`` (``exited`` ends the list).  Input events
    of interest: FORK/PROCESS_CREATED/ADOPTED (birth), STOPPED,
    CONTINUED, EXIT.
    """
    birth_types = {TraceEventType.FORK, TraceEventType.PROCESS_CREATED,
                   TraceEventType.ADOPTED}
    intervals = {}
    current = {}  # gpid -> (since_ms, state)
    for event in sorted(events, key=lambda e: e.time_ms):
        gpid = event.gpid
        if gpid is None:
            continue
        if event.event_type in birth_types and gpid not in current:
            current[gpid] = (event.time_ms, "running")
            intervals[gpid] = []
        elif gpid in current:
            since, state = current[gpid]
            if event.event_type is TraceEventType.STOPPED:
                intervals[gpid].append((since, event.time_ms, state))
                current[gpid] = (event.time_ms, "stopped")
            elif event.event_type is TraceEventType.CONTINUED:
                intervals[gpid].append((since, event.time_ms, state))
                current[gpid] = (event.time_ms, "running")
            elif event.event_type is TraceEventType.EXIT:
                intervals[gpid].append((since, event.time_ms, state))
                del current[gpid]
    for gpid, (since, state) in current.items():
        intervals[gpid].append((since, max(until_ms, since), state))
    return intervals


def render_gantt(events: List[TraceEvent], until_ms: float,
                 width: int = 60) -> str:
    """The display tool of section 7: a state chart of every process in
    the history (``=`` running, ``.`` stopped)."""
    intervals = state_intervals(events, until_ms)
    if not intervals:
        return "no process history to display"
    start = min(segment[0] for segments in intervals.values()
                for segment in segments)
    span = max(until_ms - start, 1.0)
    scale = width / span
    lines = ["process state chart (%.0f .. %.0f ms; '=' running, "
             "'.' stopped)" % (start, until_ms)]
    for gpid in sorted(intervals):
        row = [" "] * width
        for seg_start, seg_end, state in intervals[gpid]:
            glyph = _GANTT_GLYPHS.get(state, "?")
            lo = int((seg_start - start) * scale)
            hi = max(int((seg_end - start) * scale), lo + 1)
            for column in range(lo, min(hi, width)):
                row[column] = glyph
        lines.append("  %-16s |%s|" % (gpid, "".join(row)))
    return "\n".join(lines)


def render_timeline(events: Sequence[TraceEvent],
                    limit: int = 50) -> str:
    """A compact event timeline (most recent last)."""
    shown = list(events)[-limit:]
    lines = ["timeline (%d of %d events):" % (len(shown), len(events))]
    lines.extend("  %s" % (event,) for event in shown)
    return "\n".join(lines)
