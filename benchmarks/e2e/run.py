"""Script entry: ``python3 benchmarks/e2e/run.py`` from a checkout's
root, with no PYTHONPATH (this is the command in BENCHMARK.json).

Puts the checkout's root in place of this directory on ``sys.path`` so
the package imports as ``benchmarks.e2e`` and none of its modules can
shadow a standard-library name.
"""

import os
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
