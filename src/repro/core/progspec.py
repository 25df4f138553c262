"""Declarative program specifications.

Remote process creation sends *what to run* across the wire.  The PPM
cannot ship live Python objects, so tools describe programs as plain
dictionaries.  The protocol stack passes a spec through unread to the
host kernel's ``spawn``; the simulated kernel builds the program image
with :func:`repro.unixsim.programs.build_program`.  This keeps the
whole protocol serialisable (checked by :mod:`repro.core.wire`).
"""

from __future__ import annotations

from typing import Optional


def spinner_spec(duration_ms: Optional[float] = None) -> dict:
    """A CPU burner; ``None`` runs forever."""
    return {"type": "spinner", "duration_ms": duration_ms}


def sleeper_spec(duration_ms: Optional[float] = None) -> dict:
    """A blocked process that never joins the run queue."""
    return {"type": "sleeper", "duration_ms": duration_ms}


def worker_spec(duration_ms: float, exit_status: int = 0) -> dict:
    """A short-lived job with an exit status."""
    return {"type": "worker", "duration_ms": duration_ms,
            "exit_status": exit_status}


def file_worker_spec(duration_ms: float, files, close_after_ms=(),
                     exit_status: int = 0) -> dict:
    """A job that opens the named files while it works.

    ``close_after_ms`` is a list of ``(path, delay_ms)`` pairs closed
    before exit; the rest close at exit.
    """
    return {"type": "file_worker", "duration_ms": duration_ms,
            "exit_status": exit_status, "files": list(files),
            "close_after_ms": [[path, delay] for path, delay
                               in close_after_ms]}


def fork_tree_spec(children, duration_ms: Optional[float] = None,
                   exit_status: int = 0) -> dict:
    """A process that forks a subtree.

    ``children`` is a list of ``(command, delay_ms, child_spec)`` tuples
    (child_spec may be None for a plain forever-spinner child).
    """
    return {"type": "fork_tree", "duration_ms": duration_ms,
            "exit_status": exit_status,
            "children": [[command, delay_ms, child_spec]
                         for command, delay_ms, child_spec in children]}
