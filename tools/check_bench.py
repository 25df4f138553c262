#!/usr/bin/env python
"""Benchmark identity check: the simulator still computes the same run.

Runs every ``benchmarks.perf.runner`` scenario at full size and
compares its result with the one row ``BENCH_core.json`` holds for that
scenario: every key except the measured ``wall_*`` times — simulated
times, counters, link counts, latency blocks — compared exactly, nested
dicts and key sets included.

    python tools/check_bench.py            # compare
    python tools/check_bench.py --record   # rewrite the rows from this run

Exit status 0 when identical, 1 with one line per difference otherwise.
``--record`` is the only writer of ``BENCH_core.json``: a change that
moves a simulated value on purpose records the rows from one fresh run,
and the tool prints each key it changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_core.json")

_ABSENT = object()


def _show(value) -> str:
    return "nothing" if value is _ABSENT else repr(value)


def differences(path: str, expected: dict, actual: dict) -> List[str]:
    """One line per key, nested keys included, on which two rows
    disagree; a key only one side has is a difference too."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        where = "%s.%s" % (path, key) if path else key
        want = expected.get(key, _ABSENT)
        got = actual.get(key, _ABSENT)
        if isinstance(want, dict) and isinstance(got, dict):
            lines += differences(where, want, got)
        elif type(want) is not type(got) or want != got:
            lines.append("%s: recorded %s, now %s"
                         % (where, _show(want), _show(got)))
    return lines


def run_scenarios() -> Dict[str, dict]:
    """One full-size run of every scenario, wall times dropped."""
    sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    from benchmarks.perf.runner import SCENARIOS

    return {name: {key: value for key, value in bench().items()
                   if not key.startswith("wall_")}
            for name, bench in SCENARIOS.items()}


def load_rows(path: str) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["benchmarks"]


def record(path: str, rows: Dict[str, dict]) -> List[str]:
    """Write ``rows`` as the file's only content; return the changes."""
    before = load_rows(path) if os.path.exists(path) else {}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 2, "benchmarks": rows}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return differences("", before, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite BENCH_core.json from this run and "
                             "print each key that changed")
    args = parser.parse_args(argv)
    rows = run_scenarios()
    if args.record:
        changed = record(BENCH_PATH, rows)
        for line in changed:
            print("bench: changed %s" % line)
        print("bench: %d scenarios recorded, %d keys changed"
              % (len(rows), len(changed)))
        return 0
    lines = differences("", load_rows(BENCH_PATH), rows)
    for line in lines:
        print("bench: %s" % line)
    if lines:
        return 1
    print("bench: ok (%d scenarios identical to BENCH_core.json)"
          % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
