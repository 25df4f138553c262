"""Process control actions.

The built-in control functionality of the snapshot tool: "stop a
process, execute it in the foreground, execute it in the background,
kill it" (section 4), plus TERMINATE (the polite SIGTERM).  Actions are
applied "with no interprocess constraints based on creation
dependencies" — any process of the user's, anywhere, by ``<host, pid>``.
"""

from __future__ import annotations

from enum import Enum


class ControlAction(Enum):
    """User-visible control verbs."""

    STOP = "stop"
    CONTINUE = "continue"
    FOREGROUND = "foreground"
    BACKGROUND = "background"
    TERMINATE = "terminate"
    KILL = "kill"


#: What each action does, on every backend: the signal it sends, by
#: name, and the foreground flag set first (None: left as it is).  Each
#: backend resolves the names in its own signal numbering once, at
#: import.
CONTROL_SIGNALS = {
    ControlAction.STOP: ("SIGSTOP", None),
    ControlAction.CONTINUE: ("SIGCONT", None),
    ControlAction.FOREGROUND: ("SIGCONT", True),
    ControlAction.BACKGROUND: ("SIGCONT", False),
    ControlAction.TERMINATE: ("SIGTERM", None),
    ControlAction.KILL: ("SIGKILL", None),
}
