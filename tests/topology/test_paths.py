"""Tests for candidate-path enumeration (the P_{b,c} sets)."""

import pytest

from repro.topology.delay import link_delay_us
from repro.topology.elements import ComputeUnit, TransportLink, TransportSwitch
from repro.topology.network import NetworkTopology
from repro.topology.paths import compute_path_sets
from tests.conftest import build_tiny_topology


def candidate_paths(topology, base_station, compute_unit, k):
    return compute_path_sets(topology, k=k).paths(base_station, compute_unit)


class TestCandidatePaths:
    def test_single_path_star(self):
        topo = build_tiny_topology()
        paths = candidate_paths(topo, "bs-0", "edge-cu", k=3)
        assert len(paths) == 1
        assert paths[0].nodes == ("bs-0", "sw", "edge-cu")
        assert len(paths[0].links) == 2

    def test_multiple_paths_with_redundant_switch(self):
        topo = build_tiny_topology()
        topo.add_switch(TransportSwitch(name="sw2"))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="sw2", capacity_mbps=500.0))
        topo.add_link(TransportLink(endpoint_a="sw2", endpoint_b="edge-cu", capacity_mbps=500.0))
        paths = candidate_paths(topo, "bs-0", "edge-cu", k=4)
        assert len(paths) == 2
        # Paths are ordered by increasing delay.
        assert paths[0].delay_us <= paths[1].delay_us

    def test_bottleneck_capacity(self):
        topo = build_tiny_topology(link_capacity_mbps=1000.0)
        topo.add_switch(TransportSwitch(name="sw2"))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="sw2", capacity_mbps=200.0))
        topo.add_link(TransportLink(endpoint_a="sw2", endpoint_b="edge-cu", capacity_mbps=800.0))
        paths = candidate_paths(topo, "bs-0", "edge-cu", k=4)
        slower = [p for p in paths if "sw2" in p.nodes][0]
        assert slower.capacity_mbps == pytest.approx(200.0)

    def test_core_cu_latency_added(self):
        topo = build_tiny_topology(core_latency_ms=20.0)
        edge = candidate_paths(topo, "bs-0", "edge-cu", k=1)[0]
        core = candidate_paths(topo, "bs-0", "core-cu", k=1)[0]
        assert core.delay_ms == pytest.approx(edge.delay_ms + 20.0, rel=0.05)

    def test_delay_is_its_links_plus_the_cu_access_latency(self):
        topo = build_tiny_topology(core_latency_ms=3.0)
        path = candidate_paths(topo, "bs-0", "core-cu", k=1)[0]
        expected = sum(link_delay_us(link) for link in path.links) + 3.0 * 1000.0
        assert path.delay_us == pytest.approx(expected)

    def test_unknown_pair_has_no_paths(self):
        topo = build_tiny_topology()
        assert candidate_paths(topo, "bs-9", "edge-cu", k=1) == []

    def test_unreachable_compute_unit_has_no_pair(self):
        topo = build_tiny_topology()
        topo.add_compute_unit(ComputeUnit(name="island", capacity_cpus=4.0))
        path_set = compute_path_sets(topo, k=2)
        assert candidate_paths(topo, "bs-0", "island", k=2) == []
        assert all(cu != "island" for (_bs, cu), _paths in path_set.items())

    def test_paths_never_relay_through_another_base_station(self):
        # bs-1 gets a direct link to the edge CU; bs-0 must still reach it
        # through the switch only, not via sw -> bs-1 -> edge-cu.
        topo = build_tiny_topology()
        topo.add_link(TransportLink(endpoint_a="bs-1", endpoint_b="edge-cu", capacity_mbps=1000.0))
        paths = candidate_paths(topo, "bs-0", "edge-cu", k=4)
        assert [p.nodes for p in paths] == [("bs-0", "sw", "edge-cu")]
        assert len(candidate_paths(topo, "bs-1", "edge-cu", k=4)) == 2

    def test_weights_are_read_per_call(self):
        # A capacity change between two calls re-ranks the two routes.
        topo = build_tiny_topology()
        topo.add_switch(TransportSwitch(name="sw2"))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="sw2", capacity_mbps=500.0))
        topo.add_link(TransportLink(endpoint_a="sw2", endpoint_b="edge-cu", capacity_mbps=500.0))
        before = candidate_paths(topo, "bs-0", "edge-cu", k=2)
        assert before[0].nodes == ("bs-0", "sw", "edge-cu")
        topo.replace_link(TransportLink(endpoint_a="sw", endpoint_b="edge-cu", capacity_mbps=10.0))
        after = candidate_paths(topo, "bs-0", "edge-cu", k=2)
        assert after[0].nodes == ("bs-0", "sw2", "edge-cu")
        assert after[1].capacity_mbps == 10.0


class TestPathCountValidation:
    """``k`` is checked up front, with an error that names it."""

    @pytest.mark.parametrize("k", [0, -1, True, False, 2.5, "3", None])
    def test_rejected(self, tiny_topology, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            compute_path_sets(tiny_topology, k=k)

    def test_zero_is_rejected_even_without_pairs(self):
        topo = NetworkTopology()
        with pytest.raises(ValueError, match="k must be a positive integer"):
            compute_path_sets(topo, k=0)

    def test_an_integral_float_is_its_int(self, tiny_topology):
        assert compute_path_sets(tiny_topology, k=2.0).items() == (
            compute_path_sets(tiny_topology, k=2).items()
        )


class TestPathSet:
    def test_all_pairs_present(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert {pair for pair, _ in path_set.items()} == {
            (bs, cu) for bs in ("bs-0", "bs-1") for cu in ("edge-cu", "core-cu")
        }
        assert len(path_set.paths("bs-0", "edge-cu")) == 1

    def test_every_path_runs_from_its_base_station_to_its_compute_unit(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        for (bs, cu), paths in path_set.items():
            for path in paths:
                assert (path.base_station, path.compute_unit) == (bs, cu)
                assert path.nodes[0] == bs and path.nodes[-1] == cu
                assert len(path.links) == len(path.nodes) - 1
                for link, hop in zip(path.links, zip(path.nodes, path.nodes[1:])):
                    assert {link.endpoint_a, link.endpoint_b} == set(hop)

    def test_len_counts_paths(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert len(path_set) == 4  # 2 BSs x 2 CUs x 1 path

    def test_mean_paths_per_pair(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert path_set.mean_paths_per_pair() == pytest.approx(1.0)


class TestPathTable:
    """The lazily built column view the AC-RR problem builder reads."""

    def test_rows_follow_items_order_and_intern_names(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=3)
        table = path_set.table()
        flat = [path for _pair, paths in path_set.items() for path in paths]
        assert list(table.paths) == flat
        assert [table.base_stations[i] for i in table.base_station] == [
            path.base_station for path in flat
        ]
        assert [table.compute_units[i] for i in table.compute_unit] == [
            path.compute_unit for path in flat
        ]
        assert list(table.delay_ms) == [path.delay_ms for path in flat]
        for row, path in enumerate(flat):
            links = table.link[table.link_indptr[row] : table.link_indptr[row + 1]]
            assert [table.link_keys[i] for i in links] == [link.key for link in path.links]
        assert (table.link_count == 1).all()

    def test_built_once_and_idempotent(self, tiny_topology):
        import dataclasses

        import numpy as np

        from repro.topology.paths import _build_path_table

        path_set = compute_path_sets(tiny_topology, k=3)
        table = path_set.table()
        assert path_set.table() is table
        again = _build_path_table(dict(path_set.items()))
        for field in dataclasses.fields(table):
            first, second = getattr(table, field.name), getattr(again, field.name)
            if isinstance(first, np.ndarray):
                assert np.array_equal(first, second) and first.dtype == second.dtype
            else:
                assert first == second

    def test_racing_builders_publish_one_complete_table_each(self, tiny_topology, monkeypatch):
        # Two threads that both find no table both build one; each store is
        # a single attribute assignment of a finished table, so a reader
        # never sees a half-built one and whichever lands last is kept.
        import sys
        import threading

        from repro.topology import paths as paths_module

        path_set = compute_path_sets(tiny_topology, k=3)
        real_build = paths_module._build_path_table
        inside = threading.Barrier(2, timeout=30)
        built = []

        def slow_build(pairs):
            inside.wait()  # both threads are past the ``is None`` check
            table = real_build(pairs)
            built.append(table)
            return table

        monkeypatch.setattr(paths_module, "_build_path_table", slow_build)
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(path_set.table()))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(built) == 2 and len(results) == 2
        assert any(path_set.table() is table for table in built)
        assert all(any(result is table for table in built) for result in results)
        assert list(built[0].paths) == list(built[1].paths)
