"""Tests for the benchmark support package (workloads, scenarios,
tables) under plain pytest."""

import os

import pytest

from repro.bench.scenarios import (
    FIGURE5_TOPOLOGIES,
    TABLE1_PAPER,
    TABLE2_PAPER,
    build_figure5_topology,
    build_table1_world,
    build_table2_chain,
    overlay_edges,
)
from repro.bench.tables import comparison_table, write_result
from repro.bench.workloads import (
    clear_load,
    measure_kernel_deliveries,
    raise_load_to_band,
)
from repro.netsim import HostClass


class TestWorkloads:
    def test_raise_load_reaches_each_band(self):
        world, host, lpm, _client, _target = build_table1_world(
            HostClass.VAX_780)
        pids = raise_load_to_band(world, host, (1, 2))
        la = host.kernel.loadavg.value()
        assert 1.0 < la <= 2.0
        assert len(pids) == 2
        clear_load(world, host, pids)
        assert host.kernel.loadavg.value() < 0.2

    def test_measure_kernel_deliveries_sample_count(self):
        world, host, lpm, _client, target = build_table1_world(
            HostClass.VAX_750)
        raise_load_to_band(world, host, (0, 1))
        delays = measure_kernel_deliveries(world, host, lpm, target.pid,
                                           (0, 1), samples=6)
        assert len(delays) == 6
        assert all(delay > 0 for delay in delays)


class TestScenarios:
    def test_paper_constants_complete(self):
        assert len(TABLE1_PAPER[HostClass.SUN_2]) == 4
        assert len(TABLE1_PAPER[HostClass.VAX_780]) == 3  # blank cell
        assert TABLE2_PAPER[("stop", "one-hop")] == 199.0
        assert [t.paper_ms for t in FIGURE5_TOPOLOGIES] == [
            205.0, 225.0, 461.0, 507.0]

    def test_table2_chain_shape(self):
        chain = build_table2_chain()
        lpm_a = chain.world.lpms[("hostA", "lfc")]
        assert "hostC" not in lpm_a.authenticated_siblings()
        assert lpm_a.router.cache.route_to("hostC") == [
            "hostA", "hostB", "hostC"]
        assert chain.two_hop.host == "hostC"
        # Fresh targets land at the right distances.
        assert chain.fresh_target("within").host == "hostA"
        assert chain.fresh_target("one-hop").host == "hostB"
        assert chain.fresh_target("two-hop").host == "hostC"
        with pytest.raises(ValueError):
            chain.fresh_target("three-hop")

    @pytest.mark.parametrize("topology", FIGURE5_TOPOLOGIES,
                             ids=lambda t: t.name)
    def test_figure5_builders_produce_prescribed_overlays(self, topology):
        world, origin = build_figure5_topology(topology)
        edges = {frozenset(edge) for edge in overlay_edges(world)}
        assert edges == {frozenset(edge) for edge in topology.edges}
        forest = origin.snapshot(prune=False)
        assert len(forest) == 6 * len(topology.remote_hosts)


class TestTables:
    def test_comparison_table_ratio(self):
        text = comparison_table("T", [
            {"case": "x", "paper_ms": 100.0, "measured_ms": 110.0},
            {"case": "y", "paper_ms": None, "measured_ms": 5.0},
        ])
        assert "1.10" in text
        assert "-" in text  # the no-paper-value row

    def test_write_result_creates_file(self, tmp_path):
        path = write_result("unit.txt", "hello",
                            results_dir=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read() == "hello\n"
