"""End-to-end wall-clock benchmark of the live ``repro serve`` fleet and
the simulator (see README.md in this directory).

Run it with ``PYTHONPATH=src:. python -m benchmarks.e2e --seed 47`` or,
as ``BENCHMARK.json`` does, ``python3 benchmarks/e2e/run.py``.
"""
