#!/usr/bin/env python
"""Benchmark identity check: the simulator still computes the same run.

Runs every ``benchmarks.perf.runner`` scenario except
``locate_200_hosts`` (a minute on its own, most of it world build) at
full size and compares every ``sim_ms`` value and every integer-valued
key — counters, link counts, flood forwards — with the row committed in
``BENCH_core.json`` under a label.  Wall times are never compared.

    python tools/check_bench.py [LABEL]

Exit status 0 when identical, 1 with one line per difference otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The committed row to compare against; a PR that records its own row
#: (because it changed a number on purpose) bumps this to its label.
BASELINE_LABEL = "pr28"
SKIPPED = ("locate_200_hosts",)


def differences(name: str, expected: dict, actual: dict) -> List[str]:
    """One line per deterministic key on which the two rows disagree."""
    lines = []
    for key in sorted(set(expected) & set(actual)):
        want, got = expected[key], actual[key]
        deterministic = "sim_ms" in key or (isinstance(want, int)
                                            and isinstance(got, int))
        if deterministic and want != got:
            lines.append("%s.%s: recorded %r, now %r"
                         % (name, key, want, got))
    return lines


def main() -> int:
    label = sys.argv[1] if len(sys.argv) > 1 else BASELINE_LABEL
    sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    from benchmarks.perf.runner import SCENARIOS

    with open(os.path.join(REPO_ROOT, "BENCH_core.json"),
              encoding="utf-8") as handle:
        recorded = json.load(handle)["benchmarks"]
    lines = []
    for name, bench in SCENARIOS.items():
        if name in SKIPPED:
            continue
        if label not in recorded.get(name, {}):
            lines.append("%s: no row recorded under %r" % (name, label))
            continue
        lines += differences(name, recorded[name][label], bench())
    for line in lines:
        print("bench: %s" % line)
    if lines:
        return 1
    print("bench: ok (%d scenarios identical to the %r row)"
          % (len(SCENARIOS) - len(SKIPPED), label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
