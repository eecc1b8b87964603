"""Nested-loop references for the bulk local-search scans.

The runtime scans score a whole step in one vectorized pass.  This module
keeps the plain loops they replaced as oracles, so tests can compare the
two move by move or monkeypatch an oracle in and rerun whole builders:

* :func:`reference_best_cost_reparent` — the cost descents of
  ``repair_overload``, ``reduce_cost_under_caps`` and ``delay_bounded``
  (:meth:`TreeState.best_cost_reparent`), with the same keyword interface;
* :func:`reference_two_opt_best` / :func:`reference_or_opt_best` and
  :func:`reference_improve_hamiltonian_path` — the 2-opt / or-opt path
  polish (:func:`repro.core.local_search.improve_hamiltonian_path`);
* :func:`reference_maximize_lifetime` — the per-pair lexicographic
  lifetime ascent (:func:`repro.core.local_search.maximize_lifetime`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest

from repro.core.tree import AggregationTree
from repro.engine import TreeState
from repro.engine.treestate import NO_GAIN, freeze_parents, lifetime_delta_better


def reference_best_cost_reparent(
    state: TreeState,
    *,
    cand_ok: Optional[np.ndarray] = None,
    child_group: Optional[np.ndarray] = None,
    pair_ok: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    threshold: Optional[float] = None,
) -> Optional[Tuple[float, int, int]]:
    """The cheapest valid re-parent move by explicit loops.

    Walks children ascending, then each child's neighbours ascending (with
    ``child_group``: groups ascending first, then children, then
    candidates) and keeps a move only when its delta is strictly below the
    best so far, so ties go to the first pair walked.
    """
    if not state.spanning:
        raise ValueError("bulk move scans require a spanning state")
    network = state.network
    children = [v for v in range(state.n) if v != state.sink]
    if child_group is not None:
        children = [v for v in children if child_group[v] >= 0]
        children.sort(key=lambda v: int(child_group[v]))  # stable
    best: Optional[Tuple[float, int, int]] = None
    for child in children:
        parent = state.parent(child)
        for cand in network.neighbors(child):
            if cand == parent or state.in_subtree(cand, child):
                continue
            if cand_ok is not None and not cand_ok[cand]:
                continue
            if pair_ok is not None and not pair_ok(
                np.array([child]), np.array([cand])
            )[0]:
                continue
            delta = network.cost(child, cand) - network.cost(child, parent)
            if threshold is not None and not delta < threshold:
                continue
            if best is None or delta < best[0]:
                best = (delta, child, cand)
    return best


def reference_two_opt_best(
    network, order: List[int]
) -> Optional[Tuple[float, Tuple[int, int]]]:
    """The cheapest strictly improving 2-opt move on the path *order*.

    Reversing ``order[i+1 .. j]`` replaces the links ``(order[i],
    order[i+1])`` and ``(order[j], order[j+1])`` with ``(order[i],
    order[j])`` and ``(order[i+1], order[j+1])``; ``j = n-1`` drops the
    second pair.
    """
    n = len(order)
    cost = network.cost
    best: Optional[Tuple[float, Tuple[int, int]]] = None
    for i in range(0, n - 2):
        a = order[i]
        b = order[i + 1]
        for j in range(i + 2, n):
            c = order[j]
            if not network.has_edge(a, c):
                continue
            if j + 1 < n:
                d = order[j + 1]
                if not network.has_edge(b, d):
                    continue
                delta = cost(a, c) + cost(b, d) - cost(a, b) - cost(c, d)
            else:
                delta = cost(a, c) - cost(a, b)
            if delta < -1e-15 and (best is None or delta < best[0]):
                best = (delta, (i, j))
    return best


def reference_or_opt_best(
    network, order: List[int]
) -> Optional[Tuple[float, Tuple[int, int, int]]]:
    """The cheapest strictly improving or-opt move on the path *order*.

    Relocates the segment ``order[i .. i+length-1]`` (length 1-3) to sit
    after position ``k`` outside it; the move is ``(i, length, k)``.
    """
    n = len(order)
    cost = network.cost
    best: Optional[Tuple[float, Tuple[int, int, int]]] = None
    for length in (1, 2, 3):
        for i in range(1, n - length + 1):
            seg_head = order[i]
            seg_tail = order[i + length - 1]
            prev = order[i - 1]
            nxt = order[i + length] if i + length < n else None
            # Cost of closing the hole the segment leaves behind.
            removed = cost(prev, seg_head)
            if nxt is not None:
                if not network.has_edge(prev, nxt):
                    continue
                removed += cost(seg_tail, nxt) - cost(prev, nxt)
            for k in range(0, n):
                if i - 1 <= k <= i + length - 1:
                    continue  # target inside/adjacent to the segment
                left = order[k]
                right = order[k + 1] if k + 1 < n else None
                if right is not None and i <= k + 1 <= i + length - 1:
                    continue
                if not network.has_edge(left, seg_head):
                    continue
                added = cost(left, seg_head)
                if right is not None:
                    if not network.has_edge(seg_tail, right):
                        continue
                    added += cost(seg_tail, right) - cost(left, right)
                delta = added - removed
                if delta < -1e-15 and (best is None or delta < best[0]):
                    best = (delta, (i, length, k))
    return best


def reference_improve_hamiltonian_path(
    tree: AggregationTree, *, max_moves: int = 10_000
) -> AggregationTree:
    """The 2-opt / or-opt polish over the two loop scans above."""
    network = tree.network
    n = tree.n
    if n < 4:
        return tree
    if any(tree.n_children(v) > 1 for v in range(n)):
        return tree
    if tree.n_children(tree.sink) != 1:
        return tree
    order: List[int] = [tree.sink]
    while tree.n_children(order[-1]) == 1:
        order.append(tree.children(order[-1])[0])
    if len(order) != n:
        return tree
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        two = reference_two_opt_best(network, order)
        orm = reference_or_opt_best(network, order)
        if two is not None and (orm is None or two[0] <= orm[0]):
            _, (i, j) = two
            order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
            moves += 1
            improved = True
        elif orm is not None:
            _, (i, length, k) = orm
            segment = order[i : i + length]
            del order[i : i + length]
            insert_at = k + 1 if k < i else k + 1 - length
            order[insert_at:insert_at] = segment
            moves += 1
            improved = True
    parents = {order[k + 1]: order[k] for k in range(n - 1)}
    return freeze_parents(network, parents)


def reference_maximize_lifetime(
    tree: AggregationTree, *, max_moves: int = 100_000
) -> Tuple[AggregationTree, int]:
    """The per-pair lexicographic lifetime ascent; returns (tree, moves).

    Scans loaded nodes by ascending lifetime, their children ascending and
    each child's neighbours ascending, filters cycles first, scores every
    remaining pair, and acts on the first loaded node with an improving
    move.
    """
    network = tree.network
    state = TreeState.from_tree(tree)
    n = state.n
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        best_gain = NO_GAIN
        best_move: Optional[Tuple[int, int]] = None
        kids = state.children_lists()
        order = sorted(range(n), key=state.node_lifetime)
        for loaded in order:
            for child in kids[loaded]:
                for candidate in network.neighbors(child):
                    if candidate == loaded or state.in_subtree(candidate, child):
                        continue
                    gain = state.reparent_lifetime_delta(child, candidate)
                    if lifetime_delta_better(gain, best_gain):
                        best_gain = gain
                        best_move = (child, candidate)
            if best_move is not None:
                break  # act on the tightest bottleneck first
        if best_move is not None:
            state.reparent(*best_move, check=False)
            moves += 1
            improved = True
    return state.freeze(), moves


def use_reference_scan(monkeypatch) -> None:
    """Route every ``TreeState.best_cost_reparent`` call to the oracle."""
    monkeypatch.setattr(
        TreeState, "best_cost_reparent", reference_best_cost_reparent
    )


@pytest.fixture(autouse=True, params=["object", "numpy"])
def move_scan(request, monkeypatch):
    """Run every test of an importing module under both cost scans.

    ``object`` routes ``TreeState.best_cost_reparent`` to the nested-loop
    reference above; ``numpy`` keeps the vectorized runtime scan.  The ids
    name the two former TreeState classes those scans come from.
    """
    if request.param == "object":
        use_reference_scan(monkeypatch)
    return request.param
