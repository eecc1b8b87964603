"""Tests for repro.core.local_search."""

import pytest

from repro.core.errors import DisconnectedNetworkError
from repro.core.local_search import (
    bfs_tree,
    lifetime_vector,
    maximize_lifetime,
    reduce_cost_under_caps,
    repair_overload,
)
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.network.topology import random_graph


class TestBfsTree:
    def test_shortest_hop_depths(self, tiny_network):
        tree = bfs_tree(tiny_network)
        assert tree.depth(1) == 1
        assert tree.depth(2) == 1
        assert tree.depth(3) == 2
        assert tree.depth(4) == 2

    def test_disconnected_raises(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        with pytest.raises(DisconnectedNetworkError):
            bfs_tree(net)

    def test_single_node(self):
        assert bfs_tree(Network(1)).edges() == []


class TestLifetimeVector:
    def test_sorted_ascending(self, tiny_network):
        tree = bfs_tree(tiny_network)
        vec = lifetime_vector(tree)
        assert list(vec) == sorted(vec)
        assert len(vec) == tiny_network.n


class TestMaximizeLifetime:
    def test_never_decreases_bottleneck(self):
        for seed in range(5):
            net = random_graph(12, 0.6, seed=seed)
            start = bfs_tree(net)
            final, moves = maximize_lifetime(start)
            assert final.lifetime() >= start.lifetime() - 1e-9

    def test_star_becomes_balanced(self):
        # Sink-star over a complete graph: local search must spread load.
        net = Network(8, initial_energy=3000.0)
        for u in range(8):
            for v in range(u + 1, 8):
                net.add_link(u, v, 0.9)
        star = AggregationTree(net, {v: 0 for v in range(1, 8)})
        final, moves = maximize_lifetime(star)
        assert moves > 0
        assert final.lifetime() > star.lifetime()
        assert max(final.n_children(v) for v in range(8)) <= 2

    def test_reaches_local_optimum(self):
        net = random_graph(10, 0.7, seed=3)
        once, _ = maximize_lifetime(bfs_tree(net))
        twice, moves = maximize_lifetime(once)
        assert moves == 0  # already locally optimal

    def test_max_moves_cap(self):
        net = random_graph(10, 0.7, seed=4)
        _, moves = maximize_lifetime(bfs_tree(net), max_moves=1)
        assert moves <= 1


class TestRepairOverload:
    def _complete_net(self, n=6):
        net = Network(n, initial_energy=3000.0)
        for u in range(n):
            for v in range(u + 1, n):
                net.add_link(u, v, 0.9)
        return net

    def test_fixes_single_overload(self):
        net = self._complete_net()
        star = AggregationTree(net, {v: 0 for v in range(1, 6)})
        caps = {v: 2 for v in range(6)}
        repaired = repair_overload(star, caps)
        assert repaired is not None
        assert all(repaired.n_children(v) <= 2 for v in range(6))

    def test_already_feasible_is_identity(self, tiny_network):
        tree = bfs_tree(tiny_network)
        caps = {v: tree.n_children(v) for v in range(tree.n)}
        repaired = repair_overload(tree, caps)
        assert repaired == tree

    def test_impossible_caps_return_none(self, path_network):
        tree = bfs_tree(path_network)
        caps = {v: 0 for v in range(4)}  # nobody may have children
        assert repair_overload(tree, caps) is None


class TestReduceCostUnderCaps:
    def test_reduces_cost_without_violating_caps(self):
        net = Network(4, initial_energy=3000.0)
        net.add_link(0, 1, 0.99)
        net.add_link(0, 2, 0.99)
        net.add_link(1, 3, 0.5)   # expensive link used by the start tree
        net.add_link(2, 3, 0.99)  # cheap alternative
        start = AggregationTree(net, {1: 0, 2: 0, 3: 1})
        caps = {0: 2, 1: 1, 2: 1, 3: 1}
        improved = reduce_cost_under_caps(start, caps)
        assert improved.cost() < start.cost()
        assert improved.parent(3) == 2
        assert all(improved.n_children(v) <= caps[v] for v in range(4))

    def test_respects_caps_even_when_cheaper(self):
        net = Network(4, initial_energy=3000.0)
        net.add_link(0, 1, 0.99)
        net.add_link(0, 2, 0.5)
        net.add_link(1, 2, 0.6)
        net.add_link(1, 3, 0.99)
        net.add_link(2, 3, 0.7)
        start = AggregationTree(net, {1: 0, 2: 0, 3: 2})
        caps = {0: 2, 1: 1, 2: 1, 3: 0}
        improved = reduce_cost_under_caps(start, caps)
        # 3 would be cheaper under 1, and 1 has capacity: allowed.
        assert all(improved.n_children(v) <= caps[v] for v in range(4))
        assert improved.cost() <= start.cost()

    def test_local_optimum_is_fixed_point(self, small_random_network):
        tree = bfs_tree(small_random_network)
        caps = {v: small_random_network.n for v in small_random_network.nodes}
        once = reduce_cost_under_caps(tree, caps)
        twice = reduce_cost_under_caps(once, caps)
        assert once == twice


class TestLocalSearchBuilderCaps:
    def test_max_moves_reaches_the_path_polish(self, monkeypatch):
        import repro.engine.builders as builders
        from repro.engine import build_tree

        seen = []
        polish = builders.improve_hamiltonian_path

        def spy(tree, **kwargs):
            seen.append(kwargs.get("max_moves"))
            return polish(tree, **kwargs)

        monkeypatch.setattr(builders, "improve_hamiltonian_path", spy)
        net = random_graph(12, 0.6, seed=5)
        build_tree("local_search", net, lc=1.0, max_moves=7)
        assert seen == [7]
