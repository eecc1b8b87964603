"""TreeState bulk move scans against the nested-loop reference oracle.

``TreeState.best_cost_reparent`` answers every greedy cost descent with one
vectorized pass over all ``(child, candidate-parent)`` pairs.  The contract
is that it picks exactly the move the plain loops in
:mod:`tests.reference_scan` pick — same delta, same child, same candidate —
so builders produce bitwise-identical trees whichever scan runs.  (The
"across backends" test names date from when the two scans lived in two
TreeState classes.)
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TreeState, build_tree
from repro.network.model import Network
from repro.network.topology import random_graph
from tests.reference_scan import reference_best_cost_reparent, use_reference_scan


def _run_builder(builder):
    net = random_graph(24, 0.4, prr_low=0.6, prr_high=0.95, seed=11)
    config = {}
    if builder in ("ira", "local_search"):
        config["lc"] = 1.0
    if builder == "delay_bounded":
        config["max_depth"] = 6
    if builder == "rasmalai":
        config["seed"] = 4
    return build_tree(builder, net, **config)


@pytest.mark.parametrize("builder", ["ira", "local_search", "delay_bounded", "rasmalai"])
def test_builders_bitwise_identical_across_backends(builder, monkeypatch):
    a = _run_builder(builder)
    use_reference_scan(monkeypatch)
    b = _run_builder(builder)
    assert a.tree.parents == b.tree.parents
    assert a.cost == b.cost
    assert a.reliability == b.reliability
    assert a.lifetime == b.lifetime


def test_churn_simulation_bitwise_identical_across_backends(monkeypatch):
    """The churn simulator's rebuilds pick the same trees under either scan."""
    from repro.distributed.simulator import ChurnSimulation

    def run():
        net = random_graph(18, 0.45, prr_low=0.6, prr_high=0.95, seed=5)
        tree = build_tree("ira", net, lc=100.0).tree
        sim = ChurnSimulation(net, tree, 100.0, improve_probability=0.3, seed=21)
        return [
            (
                r.degraded_edge,
                r.distributed_cost,
                r.centralized_cost,
                r.distributed_reliability,
                r.messages,
                r.cumulative_messages,
                r.changed,
            )
            for r in sim.run(25)
        ]

    fast = run()
    use_reference_scan(monkeypatch)
    assert fast == run()


def test_random_mutations_bitwise_identical_across_backends():
    """Along 400 random re-parents, both scans agree at every state."""
    net = random_graph(40, 0.3, prr_low=0.5, prr_high=0.99, seed=23)
    state = TreeState.from_tree(build_tree("bfs", net).tree)
    caps = np.full(net.n, 3, dtype=np.int64)
    rng = random.Random(7)
    for _ in range(400):
        cand_ok = state.children_counts() < caps
        for kwargs in ({}, {"cand_ok": cand_ok}, {"threshold": -1e-15}):
            assert state.best_cost_reparent(**kwargs) == (
                reference_best_cost_reparent(state, **kwargs)
            )
        moves = [
            (v, p)
            for v in range(net.n)
            if v != net.sink
            for p in net.neighbors(v)
            if p != state.parent(v) and not state.in_subtree(p, v)
        ]
        state.reparent(*rng.choice(moves))


@st.composite
def scan_cases(draw):
    """A spanning tree on a small network plus every scan filter.

    PRRs come from a four-value set, so equal-cost candidates (ties) are
    common; n runs down to 1.
    """
    n = draw(st.integers(1, 9))
    prrs = st.sampled_from([0.5, 0.8, 0.9, 1.0])
    net = Network(n)
    parents = {}
    for v in range(1, n):
        parents[v] = draw(st.integers(0, v - 1))
        net.add_link(v, parents[v], draw(prrs))
    for u in range(n):
        for v in range(u + 1, n):
            if not net.has_edge(u, v) and draw(st.booleans()):
                net.add_link(u, v, draw(prrs))
    state = TreeState(net, parents)
    kwargs = {}
    if draw(st.booleans()):
        kwargs["cand_ok"] = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    if draw(st.booleans()):
        kwargs["child_group"] = np.array(
            draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int64
        )
    if draw(st.booleans()):
        allowed = np.array(
            draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        ).reshape(n, n)
        kwargs["pair_ok"] = lambda child, cand: allowed[child, cand]
    if draw(st.booleans()):
        kwargs["threshold"] = draw(st.sampled_from([-1e-15, 0.0, 0.3]))
    return state, kwargs


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_each_descent_step_picks_the_reference_move(case):
    """Descending to a fixed point, every step's (delta, child, cand) match."""
    state, kwargs = case
    for _ in range(3 * state.n):
        move = state.best_cost_reparent(**kwargs)
        assert move == reference_best_cost_reparent(state, **kwargs)
        if move is None or not move[0] < 0:
            break
        state.reparent(move[1], move[2])


def test_depths_survive_ten_thousand_node_path():
    """A 10k-node path must not recurse: depths(), freeze(), previews all
    work at a depth far beyond CPython's default recursion limit."""
    n = 10_000
    net = Network(n)
    for v in range(1, n):
        net.add_link(v - 1, v, 0.99)
    parents = {v: v - 1 for v in range(1, n)}
    state = TreeState(net, parents)
    depths = state.depths()
    assert depths[n - 1] == n - 1
    assert state.freeze().parents == parents
    assert math.isfinite(state.cost)
