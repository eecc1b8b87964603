"""Tests for repro.network.model (Network, Edge)."""

import math

import numpy as np
import pytest

from repro.network.model import Edge, Network, edge_key


class TestEdgeKey:
    def test_sorts_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            edge_key(2, 2)


class TestEdge:
    def test_cost_is_neg_log_prr(self):
        e = Edge(0, 1, 0.5)
        assert e.cost == pytest.approx(math.log(2))

    def test_perfect_link_has_zero_cost(self):
        assert Edge(0, 1, 1.0).cost == 0.0

    def test_rejects_unordered_endpoints(self):
        with pytest.raises(ValueError, match="u < v"):
            Edge(2, 1, 0.5)

    def test_rejects_zero_prr(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 0.0)

    def test_rejects_prr_above_one(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 1.5)

    def test_other_endpoint(self):
        e = Edge(2, 5, 0.9)
        assert e.other(2) == 5
        assert e.other(5) == 2
        with pytest.raises(ValueError):
            e.other(1)


class TestNetworkConstruction:
    def test_minimal(self):
        net = Network(1)
        assert net.n == 1
        assert net.sink == 0
        assert net.is_connected()

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Network(0)

    def test_scalar_energy_broadcast(self):
        net = Network(3, initial_energy=100.0)
        assert [net.initial_energy(v) for v in range(3)] == [100.0] * 3

    def test_per_node_energy(self):
        net = Network(3, initial_energy=[1.0, 2.0, 3.0])
        assert net.initial_energy(2) == 3.0
        assert net.min_initial_energy == 1.0

    def test_energy_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Network(3, initial_energy=[1.0, 2.0])

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            Network(2, initial_energy=[-1.0, 1.0])

    def test_positions_shape_checked(self):
        with pytest.raises(ValueError, match="positions"):
            Network(3, positions=np.zeros((2, 2)))

    def test_initial_energies_returns_copy(self):
        net = Network(2, initial_energy=5.0)
        arr = net.initial_energies
        arr[0] = 0.0
        assert net.initial_energy(0) == 5.0


class TestLinks:
    def test_add_and_query(self, tiny_network):
        assert tiny_network.has_edge(0, 1)
        assert tiny_network.has_edge(1, 0)  # undirected
        assert tiny_network.prr(0, 2) == 0.8
        assert tiny_network.cost(0, 2) == pytest.approx(-math.log(0.8))

    def test_add_link_returns_canonical_edge(self):
        net = Network(3)
        e = net.add_link(2, 1, 0.7)
        assert e.key == (1, 2)

    def test_replace_updates_prr(self, tiny_network):
        tiny_network.set_prr(0, 1, 0.5)
        assert tiny_network.prr(0, 1) == 0.5
        assert tiny_network.n_edges == 6  # no duplicate created

    def test_set_prr_requires_existing(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.set_prr(0, 4, 0.9)

    def test_remove_link(self, tiny_network):
        tiny_network.remove_link(3, 4)
        assert not tiny_network.has_edge(3, 4)
        assert 4 not in tiny_network.neighbors(3)

    def test_remove_missing_raises(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.remove_link(0, 4)

    def test_out_of_range_node(self, tiny_network):
        with pytest.raises(ValueError, match="out of range"):
            tiny_network.add_link(0, 9, 0.5)

    def test_neighbors_sorted(self, tiny_network):
        assert tiny_network.neighbors(1) == [0, 2, 3]

    def test_degree(self, tiny_network):
        assert tiny_network.degree(1) == 3
        assert tiny_network.degree(4) == 2

    def test_incident_edges_match_neighbors(self, tiny_network):
        edges = tiny_network.incident_edges(2)
        assert [e.other(2) for e in edges] == tiny_network.neighbors(2)

    def test_edges_iteration_deterministic(self, tiny_network):
        keys = [e.key for e in tiny_network.edges()]
        assert keys == sorted(keys)
        assert len(keys) == tiny_network.n_edges == 6

    def test_has_edge_self(self, tiny_network):
        assert not tiny_network.has_edge(1, 1)


class TestGraphQueries:
    def test_connected(self, tiny_network):
        assert tiny_network.is_connected()

    def test_disconnected(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        assert not net.is_connected()

    def test_component_of(self):
        net = Network(4)
        net.add_link(0, 1, 0.9)
        net.add_link(2, 3, 0.9)
        assert net.component_of(0) == {0, 1}
        assert net.component_of(3) == {2, 3}

    def test_average_prr(self, path_network):
        assert path_network.average_prr() == pytest.approx((0.9 + 0.8 + 0.7) / 3)

    def test_average_prr_empty(self):
        assert Network(2).average_prr() == 1.0

    def test_filtered_drops_weak_links(self, tiny_network):
        filtered = tiny_network.filtered(0.75)
        assert filtered.has_edge(0, 1)
        assert filtered.has_edge(0, 2)
        assert not filtered.has_edge(3, 4)  # prr 0.5
        assert not filtered.has_edge(1, 2)  # prr 0.6
        # original untouched
        assert tiny_network.has_edge(3, 4)

    def test_filtered_preserves_energy(self):
        net = Network(2, initial_energy=[1.0, 2.0])
        net.add_link(0, 1, 0.9)
        assert net.filtered(0.5).initial_energy(1) == 2.0

    def test_copy_independent(self, tiny_network):
        clone = tiny_network.copy()
        clone.set_prr(0, 1, 0.1)
        clone.set_initial_energy(0, 7.0)
        assert tiny_network.prr(0, 1) == 1.0
        assert tiny_network.initial_energy(0) != 7.0

    def test_to_networkx_roundtrip(self, tiny_network):
        g = tiny_network.to_networkx()
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 6
        assert g.edges[0, 2]["prr"] == 0.8
        assert g.nodes[0]["energy"] == tiny_network.initial_energy(0)


class TestCostSnapshot:
    def test_matches_neighbors_and_costs(self, tiny_network):
        src, dst, cost, indptr = tiny_network.cost_snapshot()
        for v in tiny_network.nodes:
            row = slice(indptr[v], indptr[v + 1])
            assert dst[row].tolist() == tiny_network.neighbors(v)
            assert (src[row] == v).all()
            assert cost[row].tolist() == [
                tiny_network.cost(v, u) for u in tiny_network.neighbors(v)
            ]

    def test_built_once_shared_read_only(self, tiny_network):
        snapshot = tiny_network.cost_snapshot()
        assert tiny_network.cost_snapshot() is snapshot
        for array in snapshot:
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize(
        "edit",
        [
            lambda net: net.set_prr(3, 4, 0.99),
            lambda net: net.add_link(0, 4, 0.95),
            lambda net: net.remove_link(1, 2),
        ],
        ids=["set_prr", "add_link", "remove_link"],
    )
    def test_link_edits_rebuild_it(self, tiny_network, edit):
        from repro.engine import TreeState

        before = tiny_network.cost_snapshot()
        edit(tiny_network)
        after = tiny_network.cost_snapshot()
        assert after is not before
        fresh = Network(5)
        for e in tiny_network.edges():
            fresh.add_link(e.u, e.v, e.prr)
        for got, want in zip(after, fresh.cost_snapshot()):
            assert got.tolist() == want.tolist()
        # A new TreeState's bulk scan sees the new costs.
        state = TreeState(tiny_network, {1: 0, 2: 0, 3: 1, 4: 2})
        child, cand, delta = state.reparent_candidates()
        assert delta.tolist() == [
            tiny_network.cost(c, t) - tiny_network.cost(c, state.parent(c))
            for c, t in zip(child.tolist(), cand.tolist())
        ]

    def test_path_polish_sees_new_costs(self):
        from repro.core.local_search import improve_hamiltonian_path
        from repro.core.tree import AggregationTree
        from tests.reference_scan import reference_improve_hamiltonian_path

        net = Network(6)
        for u in range(6):
            for v in range(u + 1, 6):
                net.add_link(u, v, 0.99 if v == u + 1 else 0.7)
        path = AggregationTree(net, {1: 0, 3: 1, 2: 3, 5: 2, 4: 5})
        first = improve_hamiltonian_path(path)  # builds the snapshot
        assert first.parents == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
            net.set_prr(u, v, 0.5)
        net.set_prr(0, 5, 0.99)
        net.set_prr(5, 3, 0.99)
        second = improve_hamiltonian_path(path)
        assert second.parents != first.parents
        assert second.parents == reference_improve_hamiltonian_path(path).parents

    def test_not_pickled(self, tiny_network):
        import pickle

        from repro.network.serialization import topology_fingerprint

        plain = pickle.dumps(tiny_network)
        fingerprint = topology_fingerprint(tiny_network)
        tiny_network.cost_snapshot()
        assert pickle.dumps(tiny_network) == plain
        clone = pickle.loads(plain)
        assert clone._snapshot is None
        assert topology_fingerprint(tiny_network) == fingerprint
        assert topology_fingerprint(clone) == fingerprint
        for got, want in zip(clone.cost_snapshot(), tiny_network.cost_snapshot()):
            assert got.tolist() == want.tolist()
