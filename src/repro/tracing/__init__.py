"""Event tracing, history, triggers, and display tools.

The paper stresses that process management needs *historical processing
information* so that "history dependent events can be set by users to
trigger process state changes" (section 1).  This package provides the
trace-event vocabulary, the per-session recorder, the queryable history
store, the trigger engine, the data-reduction tools, and the text
renderers (the paper's "data analysis and data representation tools").
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("TraceEvent", "TraceEventType", "Granularity"),
    ".recorder": ("TraceRecorder",),
    ".history": ("HistoryStore",),
    ".triggers": ("Trigger", "TriggerEngine", "TriggerFiring"),
    ".reduction": ("event_counts", "per_command_usage",
                   "process_lifetimes", "message_rate"),
    ".display": ("render_forest", "render_topology", "render_timeline",
                 "render_endpoints", "render_creation_steps",
                 "render_gantt", "state_intervals"),
    ".export": ("forest_to_dot", "topology_to_dot", "events_to_json",
                "forest_to_json"),
    ".ipc": ("ipc_matrix", "ipc_by_kind", "user_ipc_matrix",
             "render_ipc_matrix", "render_ipc_by_kind", "render_user_ipc",
             "hottest_links"),
})
