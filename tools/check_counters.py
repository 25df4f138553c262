#!/usr/bin/env python
"""Counter-inventory lint: no undocumented perf counters.

Every slot on :class:`repro.perf.counters.PerfCounters` must appear

1. in the counter-inventory section of the ``repro.perf.counters``
   module docstring (double-backquoted, with a description), and
2. as a row of the counter-inventory table in ``docs/PERF.md`` (the
   table headed ``| counter | counts |``),

so the inventory cannot silently drift as new subsystems add counters
(the span-tracing layer alone added three).  The reverse direction is
checked too: a counter documented in either place but missing from the
registry is stale documentation.

Run from the repo root::

    python tools/check_counters.py

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import re

from repro.perf import counters as counters_module  # noqa: E402

#: Double-backquoted identifiers, the docstring inventory's convention.
_DOCSTRING_NAME = re.compile(r"^``(\w+)``\s*$", re.MULTILINE)
#: The header row of PERF.md's counter-inventory table.
_TABLE_HEADER = "| counter | counts |"
#: A row of that table: the counter name, backquoted, in the first cell.
_TABLE_ROW = re.compile(r"^\| `(\w+)` \|")


def table_counters(perf_md: str) -> List[str]:
    """Counter names in the rows of PERF.md's counter-inventory table.

    Other tables in the file name workloads and metrics, not counters,
    so only the rows under ``_TABLE_HEADER`` count.
    """
    lines = perf_md.splitlines()
    try:
        start = lines.index(_TABLE_HEADER) + 2  # skip the |---| rule
    except ValueError:
        return []
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        match = _TABLE_ROW.match(line)
        if match:
            names.append(match.group(1))
    return names


def check(perf_md: Optional[str] = None) -> List[str]:
    errors: List[str] = []
    slots = list(counters_module._COUNTERS)
    docstring = counters_module.__doc__ or ""
    documented = set(_DOCSTRING_NAME.findall(docstring))

    if perf_md is None:
        perf_md_path = os.path.join(REPO_ROOT, "docs", "PERF.md")
        try:
            with open(perf_md_path, "r", encoding="utf-8") as handle:
                perf_md = handle.read()
        except OSError as exc:
            return ["cannot read docs/PERF.md: %s" % (exc,)]
    tabled = set(table_counters(perf_md))

    for name in slots:
        if name not in documented:
            errors.append(
                "counter %r missing from the repro.perf.counters "
                "docstring inventory" % (name,))
        if name not in tabled:
            errors.append(
                "counter %r missing from the docs/PERF.md counter "
                "table" % (name,))
    for name in sorted(documented):
        if name not in slots:
            errors.append(
                "docstring inventory documents %r, which is not a "
                "PerfCounters slot" % (name,))
    for name in sorted(tabled):
        if name not in slots:
            errors.append(
                "docs/PERF.md counter table documents %r, which is not "
                "a PerfCounters slot" % (name,))
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print("counters: %s" % error)
    if errors:
        return 1
    print("counters: ok (%d counters, docstring inventory and "
          "docs/PERF.md both complete)"
          % len(counters_module._COUNTERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
