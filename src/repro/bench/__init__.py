"""Benchmark support: workload generators, scenario builders, and the
paper-style table formatting used by the ``benchmarks/`` harness."""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".workloads": ("raise_load_to_band", "measure_kernel_deliveries"),
    ".scenarios": ("Table2Chain", "build_table1_world", "build_table2_chain",
                   "build_figure5_topology", "FIGURE5_TOPOLOGIES",
                   "fresh_world"),
    ".tables": ("comparison_table", "write_result"),
})
