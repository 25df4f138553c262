"""``repro serve`` with the benchmark's timing shims installed.

The traced run launches this instead of ``python -m repro serve``:
install the shims, run the unmodified ``repro.realnet.serve.main``, and
on exit write this process's spans and ``PERF.snapshot()`` to the file
the load generator merges.  Instrumentation inside ``src/repro`` is a
later issue; until then this file is how a serve process gets traced.
"""

from __future__ import annotations

import argparse
import sys

from . import shims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.traced_serve")
    parser.add_argument("--dump", required=True,
                        help="file to write spans and counters to on exit")
    parser.add_argument("--span-cap", type=int, default=0,
                        help="raw spans to keep for the Chrome trace")
    options, serve_argv = parser.parse_known_args(argv)
    tracer = shims.install(options.span_cap)
    from repro.perf import PERF
    from repro.realnet import serve
    try:
        return serve.main(serve_argv)
    finally:
        tracer.dump(options.dump, perf=PERF.snapshot())


if __name__ == "__main__":
    sys.exit(main())
