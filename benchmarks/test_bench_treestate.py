"""Incremental TreeState local search vs the historical rebuild approach.

The PR 3 tentpole ported every local-search move evaluation from
"materialize an :class:`AggregationTree` per candidate and re-sort the full
lifetime vector" to O(1) :class:`~repro.engine.TreeState` delta previews.
This bench reconstructs the historical algorithm verbatim (from git history)
and pins two properties at n ∈ {50, 100, 200}:

* both implementations accept the same moves and end on the *identical*
  tree (the port is decision-identical, not just approximately as good);
* the incremental engine is strictly faster at the largest size.

A second bench pins the whole-array 2-opt / or-opt path polish against its
nested-loop oracle (``tests/reference_scan.py``) on one n=100 one-child
(Hamiltonian path) instance: same path out, at least 5x faster.

Timing uses ``time.perf_counter`` directly rather than pytest-benchmark's
fixture: the two paths must run on the same freshly-built inputs, and the
comparison (not an absolute number) is the assertion.  When instrumentation
is active the measured speedups land in an obs metrics snapshot under
``bench.treestate.speedup``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core.local_search import (
    bfs_tree,
    improve_hamiltonian_path,
    lifetime_vector,
    maximize_lifetime,
)
from repro.core.tree import AggregationTree
from repro.network.topology import random_graph
from repro.obs import instrument
from tests.reference_scan import reference_improve_hamiltonian_path

#: (n_nodes, link_probability, max_moves) per size tier.  Move caps keep the
#: rebuild path affordable; both implementations get the same cap, so they
#: perform identical work at identical decision points.
SIZES = (
    (50, 0.25, 12),
    (100, 0.12, 8),
    (200, 0.06, 5),
)


def _legacy_maximize_lifetime(
    tree: AggregationTree, *, max_moves: int
) -> Tuple[AggregationTree, int]:
    """The pre-TreeState implementation, verbatim: rebuild per candidate."""
    network = tree.network
    current_vec = lifetime_vector(tree)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        best_vec = current_vec
        best_move: Optional[Tuple[int, int]] = None

        order = sorted(range(tree.n), key=lambda v: tree.node_lifetime(v))
        for loaded in order:
            for child in tree.children(loaded):
                subtree = tree.subtree(child)
                for candidate in network.neighbors(child):
                    if candidate == loaded or candidate in subtree:
                        continue
                    trial = tree.with_parent(child, candidate)
                    vec = lifetime_vector(trial)
                    if vec > best_vec:
                        best_vec = vec
                        best_move = (child, candidate)
            if best_move is not None:
                break  # act on the tightest bottleneck first

        if best_move is not None:
            tree = tree.with_parent(*best_move)
            current_vec = best_vec
            moves += 1
            improved = True
    return tree, moves


def _time(fn) -> Tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_incremental_beats_rebuild_and_agrees():
    """Same trees out, incremental strictly faster at the largest size."""
    speedups: Dict[int, float] = {}
    with instrument(params={"bench": "treestate"}) as session:
        for n, link_p, cap in SIZES:
            net = random_graph(n, link_p, seed=4200 + n)
            seed_tree = bfs_tree(net)

            (new_tree, new_moves), t_new = _time(
                lambda: maximize_lifetime(seed_tree, max_moves=cap)
            )
            (old_tree, old_moves), t_old = _time(
                lambda: _legacy_maximize_lifetime(seed_tree, max_moves=cap)
            )

            assert new_moves == old_moves > 0, f"move counts diverge at n={n}"
            assert new_tree.parents == old_tree.parents, (
                f"trees diverge at n={n}"
            )
            speedup = t_old / t_new if t_new > 0 else float("inf")
            speedups[n] = speedup
            session.registry.gauge(
                "bench.treestate.speedup", n=str(n)
            ).set(speedup)
            session.registry.gauge(
                "bench.treestate.rebuild_seconds", n=str(n)
            ).set(t_old)
            session.registry.gauge(
                "bench.treestate.incremental_seconds", n=str(n)
            ).set(t_new)
            print(
                f"n={n:4d}  moves={new_moves:3d}  rebuild={t_old:8.4f}s  "
                f"incremental={t_new:8.4f}s  speedup={speedup:6.1f}x"
            )

        snapshot = session.registry.snapshot()

    recorded = [
        k
        for k in snapshot["gauges"]
        if k.startswith("bench.treestate.speedup")
    ]
    assert len(recorded) == len(SIZES), "speedups missing from obs snapshot"
    # strict requirement from the issue: incremental wins at n=200
    assert speedups[200] > 1.0, f"incremental not faster at n=200: {speedups}"


@pytest.mark.parametrize("n,link_p", [(50, 0.25), (100, 0.12)])
def test_treestate_metrics_match_tree_at_scale(n, link_p):
    """Sanity at bench sizes: frozen results evaluate identically."""
    net = random_graph(n, link_p, seed=4300 + n)
    tree, _ = maximize_lifetime(bfs_tree(net), max_moves=10)
    rebuilt = AggregationTree(net, tree.parents)
    assert tree.cost() == pytest.approx(rebuilt.cost(), abs=1e-9)
    assert tree.lifetime() == pytest.approx(rebuilt.lifetime(), abs=1e-9)


def test_path_polish_matches_loops_and_is_5x_faster():
    """Whole-array path polish: the oracle's path, at least 5x its speed."""
    net = random_graph(100, 0.3, prr_low=0.6, prr_high=1.0, seed=4500)
    rng = np.random.default_rng(4500)
    order = [0] + (rng.permutation(99) + 1).tolist()
    for k in range(99):
        if not net.has_edge(order[k], order[k + 1]):
            net.add_link(order[k], order[k + 1], 0.6)
    path = AggregationTree(net, {order[k + 1]: order[k] for k in range(99)})

    fast, t_fast = _time(lambda: improve_hamiltonian_path(path))
    slow, t_slow = _time(lambda: reference_improve_hamiltonian_path(path))

    assert fast.parents == slow.parents
    assert fast.cost() < path.cost()
    speedup = t_slow / t_fast
    print(f"path polish n=100: loops={t_slow:.3f}s bulk={t_fast:.4f}s {speedup:.1f}x")
    assert speedup >= 5.0, f"path polish only {speedup:.1f}x the loops"
