"""Tests for repro.utils.maxflow (Dinic), cross-validated against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.maxflow import DinicMaxFlow, min_cut_value


def _cut_capacity(n, edges, source_side):
    """Capacity crossing the (undirected) cut defined by source_side."""
    total = 0.0
    for u, v, cap in edges:
        if (u in source_side) != (v in source_side):
            total += cap
    return total


class TestBasics:
    def test_single_edge(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 1, 3.5)
        result = net.solve(0, 1)
        assert result.flow_value == pytest.approx(3.5)
        assert result.source_side == {0}

    def test_no_path_is_zero_flow(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 1.0)  # 2 unreachable
        result = net.solve(0, 2)
        assert result.flow_value == 0.0
        assert 2 not in result.source_side

    def test_series_bottleneck(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 2.0)
        assert net.solve(0, 2).flow_value == pytest.approx(2.0)

    def test_parallel_paths_add(self):
        net = DinicMaxFlow(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 3, 1.0)
        net.add_edge(0, 2, 2.0)
        net.add_edge(2, 3, 2.0)
        assert net.solve(0, 3).flow_value == pytest.approx(3.0)

    def test_undirected_edge_via_rev_cap(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 1.0, 1.0)
        net.add_edge(2, 1, 1.0, 1.0)  # reversed orientation, same capacity
        assert net.solve(0, 2).flow_value == pytest.approx(1.0)

    def test_classic_diamond_with_cross_edge(self):
        # Textbook instance: max flow 23.
        net = DinicMaxFlow(6)
        for u, v, c in [
            (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4),
            (1, 3, 12), (3, 2, 9), (2, 4, 14), (4, 3, 7),
            (3, 5, 20), (4, 5, 4),
        ]:
            net.add_edge(u, v, c)
        assert net.solve(0, 5).flow_value == pytest.approx(23.0)

    def test_flows_respect_capacities_and_value(self):
        net = DinicMaxFlow(4)
        edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 1.5), (2, 3, 1.0)]
        for u, v, c in edges:
            net.add_edge(u, v, c)
        result = net.solve(0, 3)
        caps = {(u, v): c for u, v, c in edges}
        out_of_source = sum(f for (u, _), f in result.flows.items() if u == 0)
        assert out_of_source == pytest.approx(result.flow_value)
        for (u, v), f in result.flows.items():
            assert f <= caps.get((u, v), float("inf")) + 1e-9

    def test_reset_flow_allows_resolve(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 2.0)
        first = net.solve(0, 2).flow_value
        net.reset_flow()
        second = net.solve(0, 2).flow_value
        assert first == pytest.approx(second)

    def test_self_loop_ignored(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 0, 5.0)
        net.add_edge(0, 1, 1.0)
        assert net.solve(0, 1).flow_value == pytest.approx(1.0)

    def test_min_cut_value_helper(self):
        value = min_cut_value(
            3, [(0, 1, 1.0), (1, 2, 3.0), (0, 2, 2.0)], 0, 2
        )
        assert value == pytest.approx(3.0)


class TestValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            DinicMaxFlow(1)

    def test_edge_out_of_range(self):
        net = DinicMaxFlow(3)
        with pytest.raises(ValueError):
            net.add_edge(0, 3, 1.0)

    def test_negative_capacity(self):
        net = DinicMaxFlow(3)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0)

    def test_source_equals_sink(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            net.solve(0, 0)


@st.composite
def random_capacitated_graphs(draw):
    n = draw(st.integers(4, 10))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                cap = draw(
                    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
                )
                edges.append((u, v, cap))
    return n, edges


class TestAgainstNetworkx:
    @given(random_capacitated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_flow_value_matches_networkx(self, instance):
        n, edges = instance
        net = DinicMaxFlow(n)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, cap in edges:
            net.add_edge(u, v, cap, cap)
            g.add_edge(u, v, capacity=cap)
        expected, _ = nx.minimum_cut(g, 0, n - 1) if g.has_node(0) else (0, None)
        result = net.solve(0, n - 1)
        assert result.flow_value == pytest.approx(expected, abs=1e-7)

    @given(random_capacitated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_source_side_is_a_minimum_cut(self, instance):
        n, edges = instance
        net = DinicMaxFlow(n)
        for u, v, cap in edges:
            net.add_edge(u, v, cap, cap)
        result = net.solve(0, n - 1)
        assert 0 in result.source_side
        assert (n - 1) not in result.source_side
        # Max-flow/min-cut duality: the residual-reachable set's cut
        # capacity equals the flow value.
        assert _cut_capacity(n, edges, result.source_side) == pytest.approx(
            result.flow_value, abs=1e-7
        )


class TestCutoffAndReuse:
    def test_cutoff_stops_early(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 10.0)
        result = net.solve(0, 2, cutoff=3.0)
        assert result.flow_value >= 3.0  # reached the threshold...
        assert result.flow_value <= 10.0

    def test_no_cutoff_is_exact(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 4.0)
        assert net.solve(0, 2).flow_value == pytest.approx(4.0)

    def test_cutoff_above_maxflow_is_exact(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 2.0)
        assert net.solve(0, 2, cutoff=100.0).flow_value == pytest.approx(2.0)

    def test_set_capacity_rearms_network(self):
        net = DinicMaxFlow(3)
        arc = net.add_edge(0, 1, 0.0)
        net.add_edge(1, 2, 5.0)
        assert net.solve(0, 2).flow_value == 0.0
        net.set_capacity(arc, 3.0)
        net.reset_flow()
        assert net.solve(0, 2).flow_value == pytest.approx(3.0)
        net.set_capacity(arc, 0.0)
        net.reset_flow()
        assert net.solve(0, 2).flow_value == 0.0

    def test_set_capacity_validation(self):
        net = DinicMaxFlow(2)
        arc = net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            net.set_capacity(arc, -1.0)
        with pytest.raises(ValueError):
            net.set_capacity(99, 1.0)

    def test_self_loop_returns_minus_one(self):
        net = DinicMaxFlow(2)
        assert net.add_edge(0, 0, 1.0) == -1


class TestLongPaths:
    """The augmenting walk keeps an explicit stack: path length is unbounded."""

    def test_five_thousand_node_path(self):
        n = 5000
        caps = [1.0 + (i % 7) / 10 for i in range(n - 1)]
        caps[3210] = 0.25  # the unique bottleneck
        net = DinicMaxFlow(n)
        for i, cap in enumerate(caps):
            net.add_edge(i, i + 1, cap)
        result = net.solve(0, n - 1)
        assert result.flow_value == 0.25
        assert result.source_side == set(range(3211))
        assert result.flows[(0, 1)] == pytest.approx(0.25)

    def test_flows_snapshot_ignores_later_changes(self):
        net = DinicMaxFlow(3)
        arc = net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 1.0)
        result = net.solve(0, 2)
        net.set_capacity(arc, 0.0)
        net.reset_flow()
        net.solve(0, 2)
        assert result.flows == {(0, 1): 1.0, (1, 2): 1.0}


def _recursive_dinic(net, s, t, cutoff=None):
    """Textbook recursive Dinic on *net*'s arc arrays: the solver's reference.

    Full BFS levels, one DFS per augmenting path from the source.  The
    iterative solver must leave bit-for-bit the same residual capacities.
    """
    head, to, cap = net._head, net._to, net._cap

    def levels():
        level = [-1] * net.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for arc in head[u]:
                if level[to[arc]] < 0 and cap[arc] > 1e-12:
                    level[to[arc]] = level[u] + 1
                    queue.append(to[arc])
        return level

    def augment(u, pushed, level, it):
        if u == t:
            return pushed
        while it[u] < len(head[u]):
            arc = head[u][it[u]]
            if cap[arc] > 1e-12 and level[to[arc]] == level[u] + 1:
                found = augment(to[arc], min(pushed, cap[arc]), level, it)
                if found > 1e-12:
                    cap[arc] -= found
                    cap[arc ^ 1] += found
                    return found
            it[u] += 1
        return 0.0

    total = 0.0
    while cutoff is None or total < cutoff:
        level = levels()
        if level[t] < 0:
            break
        it = [0] * net.n
        while cutoff is None or total < cutoff:
            pushed = augment(s, float("inf"), level, it)
            if pushed <= 1e-12:
                break
            total += pushed
    return total


class TestMatchesRecursiveReference:
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.one_of(st.none(), st.floats(0.0, 5.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_residual_network(self, n, seed, cutoff):
        rng = np.random.default_rng(seed)
        arcs = [
            (u, v, rng.choice([rng.uniform(0, 2), 0.5, 1.0]), rng.choice([0.0, 0.5]))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        ours, reference = DinicMaxFlow(n), DinicMaxFlow(n)
        for arc in arcs:
            ours.add_edge(*arc)
            reference.add_edge(*arc)
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        result = ours.solve(s, t, cutoff=cutoff)
        assert result.flow_value == _recursive_dinic(reference, s, t, cutoff)
        assert ours._cap == reference._cap
