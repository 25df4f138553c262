"""Process control actions.

The built-in control functionality of the snapshot tool: "stop a
process, execute it in the foreground, execute it in the background,
kill it" (section 4), plus TERMINATE (the polite SIGTERM).  Actions are
applied "with no interprocess constraints based on creation
dependencies" — any process of the user's, anywhere, by ``<host, pid>``.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from ..unixsim.signals import Signal

if TYPE_CHECKING:
    from ..unixsim.kernel import Kernel


class ControlAction(Enum):
    """User-visible control verbs."""

    STOP = "stop"
    CONTINUE = "continue"
    FOREGROUND = "foreground"
    BACKGROUND = "background"
    TERMINATE = "terminate"
    KILL = "kill"


def apply_action(kernel: Kernel, pid: int, action: ControlAction,
                 uid: int) -> None:
    """Carry out one action through the local kernel's facilities
    ("LPMs use primarily 4.3BSD mechanisms for intramachine process
    control", section 4)."""
    if action is ControlAction.STOP:
        kernel.kill(pid, Signal.SIGSTOP, sender_uid=uid)
    elif action is ControlAction.CONTINUE:
        kernel.kill(pid, Signal.SIGCONT, sender_uid=uid)
    elif action is ControlAction.FOREGROUND:
        kernel.set_foreground(pid, True, sender_uid=uid)
        kernel.kill(pid, Signal.SIGCONT, sender_uid=uid)
    elif action is ControlAction.BACKGROUND:
        kernel.set_foreground(pid, False, sender_uid=uid)
        kernel.kill(pid, Signal.SIGCONT, sender_uid=uid)
    elif action is ControlAction.TERMINATE:
        kernel.kill(pid, Signal.SIGTERM, sender_uid=uid)
    elif action is ControlAction.KILL:
        kernel.kill(pid, Signal.SIGKILL, sender_uid=uid)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError("unknown action %r" % (action,))
