"""Bulk local-search scans against the nested-loop oracles.

``improve_hamiltonian_path`` scores every 2-opt and or-opt move of a step
with whole-array expressions over the path-ordered cost matrix, and
``maximize_lifetime`` scores each candidate parent's lexicographic delta
once per loaded node.  Both must make the decisions of the plain loops in
:mod:`tests.reference_scan` move for move: the same ``(delta, move)`` at
every polish step (bitwise-equal deltas) and the same trees and move
counts, also when a move cap truncates the search.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.test_bench_treestate import _legacy_maximize_lifetime
from repro.baselines.random_tree import build_random_tree
from repro.core.local_search import (
    _or_opt_best,
    _path_costs,
    _two_opt_best,
    bfs_tree,
    improve_hamiltonian_path,
    maximize_lifetime,
)
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.network.topology import random_graph
from tests.reference_scan import (
    reference_improve_hamiltonian_path,
    reference_maximize_lifetime,
    reference_or_opt_best,
    reference_two_opt_best,
)

#: Few distinct PRRs, so many moves tie on cost exactly.
TIE_PRRS = (0.5, 0.7, 0.9)


def _path_instance(n: int, link_p: float, seed: int):
    """A network holding the Hamiltonian path ``order`` plus random links."""
    rng = random.Random(seed)
    order = [0] + rng.sample(range(1, n), n - 1)
    net = Network(n)
    for k in range(n - 1):
        net.add_link(order[k], order[k + 1], rng.choice(TIE_PRRS))
    for u in range(n):
        for v in range(u + 1, n):
            if not net.has_edge(u, v) and rng.random() < link_p:
                net.add_link(u, v, rng.choice(TIE_PRRS))
    return net, order


def _path_tree(net, order) -> AggregationTree:
    return AggregationTree(net, {order[k + 1]: order[k] for k in range(len(order) - 1)})


path_cases = st.tuples(
    st.integers(min_value=4, max_value=14),
    st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    st.integers(min_value=0, max_value=10**6),
)


class TestPathPolishParity:
    @settings(max_examples=150, deadline=None)
    @given(path_cases)
    def test_every_step_picks_the_oracle_move(self, case):
        n, link_p, seed = case
        net, order = _path_instance(n, link_p, seed)
        for _ in range(50):
            P = _path_costs(net, order)
            two = _two_opt_best(P)
            orm = _or_opt_best(P)
            assert two == reference_two_opt_best(net, order)
            assert orm == reference_or_opt_best(net, order)
            if two is not None and (orm is None or two[0] <= orm[0]):
                _, (i, j) = two
                order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
            elif orm is not None:
                _, (i, length, k) = orm
                segment = order[i : i + length]
                del order[i : i + length]
                insert_at = k + 1 if k < i else k + 1 - length
                order[insert_at:insert_at] = segment
            else:
                break

    @settings(max_examples=100, deadline=None)
    @given(path_cases, st.sampled_from([0, 1, 2, 5, 10_000]))
    def test_whole_polish_matches_oracle(self, case, cap):
        n, link_p, seed = case
        net, order = _path_instance(n, link_p, seed)
        tree = _path_tree(net, order)
        got = improve_hamiltonian_path(tree, max_moves=cap)
        want = reference_improve_hamiltonian_path(tree, max_moves=cap)
        assert got.parents == want.parents

    def test_path_costs_mark_missing_links_inf(self):
        net, order = _path_instance(9, 0.3, 4)
        P = _path_costs(net, order)
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                if net.has_edge(u, v):
                    assert P[i, j] == net.cost(u, v)
                else:
                    assert P[i, j] == np.inf

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=14), st.integers(0, 10**6))
    def test_non_path_trees_returned_unchanged(self, n, seed):
        net = random_graph(n, 0.6, seed=seed)
        tree = build_random_tree(net, seed=seed)
        if all(tree.n_children(v) <= 1 for v in range(n)):
            return  # a random tree that happens to be a path
        assert improve_hamiltonian_path(tree) is tree
        assert reference_improve_hamiltonian_path(tree) is tree


lifetime_cases = st.tuples(
    st.integers(min_value=4, max_value=30),
    st.sampled_from([0.2, 0.4, 0.8]),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.booleans(),
)


def _lifetime_instance(case):
    n, link_p, seed, mixed_energy, random_start = case
    energy = 2.0
    if mixed_energy:
        # Two energy levels: equal-lifetime ties across distinct nodes.
        energy = np.where(np.arange(n) % 3 == 0, 1.0, 2.0)
    net = random_graph(n, link_p, initial_energy=energy, seed=seed)
    start = build_random_tree(net, seed=seed) if random_start else bfs_tree(net)
    return net, start


class TestLifetimeAscentParity:
    @settings(max_examples=120, deadline=None)
    @given(lifetime_cases)
    def test_same_tree_and_moves_as_oracle(self, case):
        _, start = _lifetime_instance(case)
        got, got_moves = maximize_lifetime(start)
        want, want_moves = reference_maximize_lifetime(start)
        assert got_moves == want_moves
        assert got.parents == want.parents

    @settings(max_examples=60, deadline=None)
    @given(lifetime_cases, st.integers(min_value=0, max_value=6))
    def test_truncated_ascent_matches_oracle(self, case, cap):
        _, start = _lifetime_instance(case)
        got, got_moves = maximize_lifetime(start, max_moves=cap)
        want, want_moves = reference_maximize_lifetime(start, max_moves=cap)
        assert got_moves == want_moves <= cap
        assert got.parents == want.parents

    @pytest.mark.parametrize("n,link_p,cap", [(30, 0.3, 12), (60, 0.15, 8)])
    def test_matches_rebuild_per_candidate_legacy(self, n, link_p, cap):
        start = bfs_tree(random_graph(n, link_p, seed=4400 + n))
        got, got_moves = maximize_lifetime(start, max_moves=cap)
        want, want_moves = _legacy_maximize_lifetime(start, max_moves=cap)
        assert got_moves == want_moves > 0
        assert got.parents == want.parents
