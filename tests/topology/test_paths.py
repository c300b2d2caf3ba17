"""Tests for candidate-path enumeration (the P_{b,c} sets)."""

import pytest

from repro.topology.elements import TransportLink, TransportSwitch
from repro.topology.paths import compute_path_sets, k_shortest_paths
from tests.conftest import build_tiny_topology


class TestKShortestPaths:
    def test_single_path_star(self):
        topo = build_tiny_topology()
        paths = k_shortest_paths(topo, "bs-0", "edge-cu", k=3)
        assert len(paths) == 1
        assert paths[0].nodes == ("bs-0", "sw", "edge-cu")
        assert paths[0].hop_count == 2

    def test_k_must_be_positive(self):
        topo = build_tiny_topology()
        with pytest.raises(ValueError):
            k_shortest_paths(topo, "bs-0", "edge-cu", k=0)

    def test_unknown_weight_rejected(self):
        topo = build_tiny_topology()
        with pytest.raises(ValueError):
            k_shortest_paths(topo, "bs-0", "edge-cu", k=1, weight="hops-and-delay")

    def test_multiple_paths_with_redundant_switch(self):
        topo = build_tiny_topology()
        topo.add_switch(TransportSwitch(name="sw2"))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="sw2", capacity_mbps=500.0))
        topo.add_link(TransportLink(endpoint_a="sw2", endpoint_b="edge-cu", capacity_mbps=500.0))
        paths = k_shortest_paths(topo, "bs-0", "edge-cu", k=4)
        assert len(paths) == 2
        # Paths are ordered by increasing delay.
        assert paths[0].delay_us <= paths[1].delay_us

    def test_bottleneck_capacity(self):
        topo = build_tiny_topology(link_capacity_mbps=1000.0)
        topo.add_switch(TransportSwitch(name="sw2"))
        topo.add_link(TransportLink(endpoint_a="bs-0", endpoint_b="sw2", capacity_mbps=200.0))
        topo.add_link(TransportLink(endpoint_a="sw2", endpoint_b="edge-cu", capacity_mbps=800.0))
        paths = k_shortest_paths(topo, "bs-0", "edge-cu", k=4)
        slower = [p for p in paths if "sw2" in p.nodes][0]
        assert slower.capacity_mbps == pytest.approx(200.0)

    def test_core_cu_latency_added(self):
        topo = build_tiny_topology(core_latency_ms=20.0)
        edge = k_shortest_paths(topo, "bs-0", "edge-cu", k=1)[0]
        core = k_shortest_paths(topo, "bs-0", "core-cu", k=1)[0]
        assert core.delay_ms == pytest.approx(edge.delay_ms + 20.0, rel=0.05)


class TestPathSet:
    def test_all_pairs_present(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert set(path_set.base_stations()) == {"bs-0", "bs-1"}
        assert set(path_set.compute_units()) == {"edge-cu", "core-cu"}
        assert len(path_set.paths("bs-0", "edge-cu")) == 1

    def test_len_counts_paths(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert len(path_set) == 4  # 2 BSs x 2 CUs x 1 path

    def test_mean_paths_per_pair(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert path_set.mean_paths_per_pair() == pytest.approx(1.0)

    def test_paths_from_and_to(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        assert len(path_set.paths_from("bs-0")) == 2
        assert len(path_set.paths_to("edge-cu")) == 2

    def test_uses_link(self, tiny_topology):
        path_set = compute_path_sets(tiny_topology, k=2)
        path = path_set.paths("bs-0", "edge-cu")[0]
        assert path.uses_link(("sw", "edge-cu"))
        assert path.uses_link(("edge-cu", "sw"))
        assert not path.uses_link(("sw", "core-cu"))


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
            assert table.paths[table.pair_start[row]].base_station == path.base_station
            assert table.paths[table.pair_start[row]].compute_unit == path.compute_unit
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
