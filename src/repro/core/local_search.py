"""Tree local-search primitives shared by AAML and IRA's repair pass.

Three searches operate on the same move: detach a node from its parent and
re-attach it under a network neighbour outside its own subtree.

* :func:`maximize_lifetime` — lexicographically raise the ascending per-node
  lifetime vector.  This is the engine of the AAML baseline (Wu et al. 2008:
  "iteratively reduce the load on bottleneck nodes") and, because it drives
  the tree toward the lifetime-optimal load distribution, also the
  feasibility fallback of IRA's repair pass.
* :func:`repair_overload` — cheapest single moves that reduce the total
  children-cap excess; fixes the bounded violation a forced relaxation can
  leave behind.
* :func:`reduce_cost_under_caps` — greedy cost descent that never violates
  the children caps; polishes a feasibility-first tree back toward low cost.

A fourth, :func:`improve_hamiltonian_path`, polishes the Hamiltonian paths
of the one-child regime with 2-opt and or-opt moves, which re-parent moves
cannot make.

Every search strictly decreases (or lexicographically increases) a potential
per accepted move over a finite state space, so all of them terminate.

The re-parent searches run on the incremental
:class:`~repro.engine.treestate.TreeState` engine (a re-parent changes only
the two parents' lifetimes and one tree edge; cycle filtering is an
ancestor walk), and no :class:`AggregationTree` is constructed until a
search ``freeze()``s its result.  Every search scores a whole step in bulk:
the cost descents in one numpy pass over all ``(child, candidate)`` pairs
(:meth:`TreeState.best_cost_reparent`), the path polish with whole-array
expressions over the path-ordered cost matrix, and the lifetime ascent with
one array test per loaded node and one delta per distinct candidate.  Each
takes exactly the moves of the nested loops it replaced — same floats, same
scan order, same tie-breaks — and those loops live on as the test oracles
in ``tests/reference_scan.py``.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.tree import AggregationTree
from repro.engine.treestate import (
    NO_GAIN,
    LifetimeDelta,
    TreeState,
    freeze_parents,
    lifetime_delta_better,
    swap_lifetime_delta,
)
from repro.obs import OBS

#: Strict-descent cutoff shared by every greedy cost scan.
COST_EPS = -1e-15


def _caps_array(caps: Dict[int, int], n: int) -> np.ndarray:
    return np.array([caps[v] for v in range(n)], dtype=np.int64)

__all__ = [
    "bfs_tree",
    "improve_hamiltonian_path",
    "lifetime_vector",
    "maximize_lifetime",
    "repair_overload",
    "reduce_cost_under_caps",
]


def bfs_tree(network) -> AggregationTree:
    """Breadth-first (shortest-hop) spanning tree — the canonical start point.

    Used as AAML's "arbitrary tree" and as the restart point of IRA's repair
    pass.  Raises :class:`~repro.core.errors.DisconnectedNetworkError` when
    some node cannot reach the sink.
    """
    from repro.core.errors import DisconnectedNetworkError

    state = TreeState(network)
    frontier = [network.sink]
    while frontier:
        nxt = []
        for u in frontier:
            for v in network.neighbors(u):
                if not state.is_attached(v):
                    state.attach(v, u)
                    nxt.append(v)
        frontier = nxt
    if not state.spanning:
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    return state.freeze()


def lifetime_vector(tree: AggregationTree) -> Tuple[float, ...]:
    """Per-node lifetimes sorted ascending — the lexicographic potential."""
    return tuple(sorted(tree.node_lifetime(v) for v in range(tree.n)))


def maximize_lifetime(
    tree: AggregationTree, *, max_moves: int = 100_000
) -> Tuple[AggregationTree, int]:
    """Lexicographic bottleneck-lifetime ascent; returns (tree, moves).

    Each iteration scans loaded nodes from the most starved outward, their
    children ascending and each child's neighbours ascending, and accepts
    the lexicographically best strict improvement of the ascending lifetime
    vector found under the first loaded node that has one (ties go to the
    first pair scanned); stops at a local optimum.

    Moving a child off *loaded* changes only the lifetimes of *loaded* and
    of the candidate parent, so the move's delta does not depend on which
    child moves.  Per loaded node one whole-array test marks the candidates
    that improve on the current tree, from per-node lifetimes with one
    child more and one child less that are cached and refreshed only for
    the two parents a move touches; a loaded node without one is skipped
    unscanned.  Under a loaded node with one, the delta of each distinct
    candidate (lifetime, lifetime with one child more) pair is scored once,
    and the cycle check (:meth:`TreeState.in_subtree`) runs only for a pair
    whose candidate would beat the best so far.
    """
    network = tree.network
    state = TreeState.from_tree(tree)
    n = state.n
    model = network.energy_model
    energy = [network.initial_energy(v) for v in range(n)]
    life = state.lifetime_values()
    _, dst, _, indptr = network.cost_snapshot()
    nbrs = [dst[indptr[v] : indptr[v + 1]].tolist() for v in range(n)]
    kids = state.children_lists()
    in_subtree = state.in_subtree

    def shifted(v: int, by: int) -> Optional[float]:
        count = state.n_children(v) + by
        return model.lifetime_rounds(energy[v], count) if count >= 0 else None

    plus = [shifted(v, 1) for v in range(n)]
    minus = [shifted(v, -1) for v in range(n)]
    life_arr = np.array(life)
    plus_arr = np.array(plus)

    moves = 0
    evaluated = 0
    while moves < max_moves:
        best_move: Optional[Tuple[int, int]] = None
        # Per (lifetime, lifted lifetime) of the loaded node: which
        # candidates improve on the tree, i.e. the (min, max) of their two
        # new lifetimes beats that of the two old ones (the same test as
        # lifetime_delta_better(delta, NO_GAIN)).  The loaded node never
        # passes: one more child never lengthens its lifetime.
        improving_for: Dict[Tuple[float, float], List[bool]] = {}
        for loaded in np.argsort(life_arr, kind="stable").tolist():
            if not kids[loaded]:
                continue
            life_loaded = life[loaded]
            lifted = minus[loaded]
            wins = improving_for.get((life_loaded, lifted))
            if wins is None:
                new_lo = np.minimum(lifted, plus_arr)
                new_hi = np.maximum(lifted, plus_arr)
                old_lo = np.minimum(life_loaded, life_arr)
                old_hi = np.maximum(life_loaded, life_arr)
                wins = improving_for[(life_loaded, lifted)] = (
                    (new_lo > old_lo) | ((new_lo == old_lo) & (new_hi > old_hi))
                ).tolist()
            if not any(wins):
                continue
            best_gain = NO_GAIN
            # A candidate's delta depends only on its (lifetime, lifetime
            # with one child more); both caches are keyed by that pair.
            gains: Dict[Tuple[float, float], LifetimeDelta] = {}
            beats: Dict[Tuple[float, float], bool] = {}  # reset with best_gain
            for child in kids[loaded]:
                for cand in nbrs[child]:
                    if not wins[cand]:
                        continue
                    key = (life[cand], plus[cand])
                    better = beats.get(key)
                    if better is None:
                        gain = gains.get(key)
                        if gain is None:
                            gain = gains[key] = swap_lifetime_delta(
                                life_loaded, key[0], lifted, key[1]
                            )
                        better = beats[key] = lifetime_delta_better(gain, best_gain)
                    if better and not in_subtree(cand, child):
                        best_gain = gains[key]
                        best_move = (child, cand)
                        beats = {}
            evaluated += len(gains)
            if best_move is not None:
                break  # act on the tightest bottleneck first
        if best_move is None:
            break
        child, cand = best_move
        old = state.parent(child)
        state.reparent(child, cand, check=False)
        kids[old].remove(child)
        insort(kids[cand], child)
        for v in (old, cand):
            plus[v] = shifted(v, 1)
            minus[v] = shifted(v, -1)
            life_arr[v] = life[v]
            plus_arr[v] = plus[v]
        moves += 1
    if OBS.enabled:
        reg = OBS.registry
        reg.counter("local_search.moves_accepted", op="maximize_lifetime").inc(moves)
        reg.counter("local_search.moves_evaluated", op="maximize_lifetime").inc(
            evaluated
        )
    return state.freeze(), moves


def _total_excess(state: TreeState, caps: Dict[int, int]) -> int:
    return sum(max(0, state.n_children(v) - caps[v]) for v in range(state.n))


def repair_overload(
    tree: AggregationTree, caps: Dict[int, int]
) -> Optional[AggregationTree]:
    """Re-home excess children until every node meets its children cap.

    Each move takes a child of an overloaded node to an under-cap network
    neighbour, preferring the smallest cost increase.  Returns the repaired
    tree, or ``None`` when no single move can make progress (the caller
    should fall back to :func:`maximize_lifetime`).
    """
    state = TreeState.from_tree(tree)
    moves = 0
    caps_arr = _caps_array(caps, state.n)
    while _total_excess(state, caps) > 0:
        # Children of overloaded nodes, scanned by ascending (overloaded
        # parent, child, cand).
        counts = state.children_counts()
        overloaded_mask = counts > caps_arr
        parents_arr = state.parents_array()
        safe = np.maximum(parents_arr, 0)
        group = np.where(
            (parents_arr >= 0) & overloaded_mask[safe], parents_arr, -1
        )
        best = state.best_cost_reparent(
            cand_ok=counts < caps_arr, child_group=group
        )
        if best is None:
            if OBS.enabled and moves:
                OBS.registry.counter(
                    "local_search.moves_accepted", op="repair_overload"
                ).inc(moves)
            return None
        state.reparent(best[1], best[2], check=False)
        moves += 1
    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="repair_overload"
        ).inc(moves)
    return state.freeze()


def _path_costs(network, order: List[int]) -> np.ndarray:
    """``P[i, j] = cost(order[i], order[j])``, ``inf`` where no link exists."""
    src, dst, cost, _ = network.cost_snapshot()
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order))
    P = np.full((len(order), len(order)), np.inf)
    P[pos[src], pos[dst]] = cost
    return P


def _two_opt_best(P: np.ndarray) -> Optional[Tuple[float, Tuple[int, int]]]:
    """The cheapest strictly improving 2-opt move ``(delta, (i, j))``.

    Reversing ``order[i+1 .. j]`` replaces the path links ``(i, i+1)`` and
    ``(j, j+1)`` with ``(i, j)`` and ``(i+1, j+1)``; ``j = n-1`` drops the
    second pair.  Ties go to the first ``(i, j)`` in row-major order.
    """
    n = P.shape[0]
    edge = np.diagonal(P, 1)  # the path's links, all finite
    ab = edge[: n - 2, None]
    delta = np.empty((n - 2, n))
    delta[:, : n - 1] = ((P[: n - 2, : n - 1] + P[1 : n - 1, 1:]) - ab) - edge
    delta[:, n - 1] = P[: n - 2, n - 1] - edge[: n - 2]
    delta[np.tri(n - 2, n, 1, dtype=bool)] = np.inf  # j <= i + 1
    best = int(np.argmin(delta))
    i, j = divmod(best, n)
    if delta[i, j] < COST_EPS:
        return float(delta[i, j]), (i, j)
    return None


def _or_opt_best(P: np.ndarray) -> Optional[Tuple[float, Tuple[int, int, int]]]:
    """The cheapest strictly improving or-opt move ``(delta, (i, length, k))``.

    Relocates the segment ``order[i .. i+length-1]`` (length 1-3) to sit
    after position ``k`` outside it.  Ties go to the first ``(length, i,
    k)`` in row-major order.
    """
    n = P.shape[0]
    edge = np.diagonal(P, 1)  # the path's links, all finite
    delta = np.full((3, n - 1, n), np.inf)
    for length in (1, 2, 3):
        # Row r is the segment starting at i = r + 1, for i = 1 .. n-length.
        m = n - length
        rows = np.arange(m)
        # Cost of closing the hole the segment leaves behind; -inf when the
        # segment's neighbours are not linked.
        removed = edge[:m].copy()
        removed[: m - 1] += edge[length:] - np.diagonal(P, length + 1)
        added = np.empty((m, n))
        added[:, : n - 1] = P[: n - 1, 1 : m + 1].T + (P[length:, 1:] - edge)
        added[:, n - 1] = P[n - 1, 1 : m + 1]
        d = np.subtract(added, removed[:, None], out=delta[length - 1, :m])
        for offset in range(length + 1):  # k = i-1 .. i+length-1
            d[rows, rows + offset] = np.inf
    best = int(np.argmin(delta))
    length, rest = divmod(best, (n - 1) * n)
    i, k = divmod(rest, n)
    value = delta[length, i, k]
    if value < COST_EPS:
        return float(value), (i + 1, length + 1, k)
    return None


def improve_hamiltonian_path(
    tree: AggregationTree, *, max_moves: int = 10_000
) -> AggregationTree:
    """2-opt / or-opt cost descent for Hamiltonian-path aggregation trees.

    The strictest feasible MRLC regime (uniform energy, ``LC`` equal to the
    one-child lifetime) only admits Hamiltonian paths with the sink as an
    endpoint.  Re-parent moves cannot descend there (no node has spare child
    capacity), but the classic 2-opt move can: pick positions ``i < j`` on
    the path, reverse the segment between them, and keep the change when the
    two swapped links exist in the network and are cheaper.  Or-opt moves
    relocate a segment of 1-3 nodes.  The sink end is pinned (it must stay
    the root).  Each step scores every move of both kinds from the
    path-ordered cost matrix and takes the cheapest (2-opt wins ties).

    Returns *tree* unchanged when it is not a sink-rooted Hamiltonian path.
    """
    network = tree.network
    n = tree.n
    if n < 4:
        return tree
    if any(tree.n_children(v) > 1 for v in range(n)):
        return tree
    if tree.n_children(tree.sink) != 1:
        return tree

    # Path order from the sink: order[0] = sink, order[k+1] = child of order[k].
    order: List[int] = [tree.sink]
    while tree.n_children(order[-1]) == 1:
        order.append(tree.children(order[-1])[0])
    if len(order) != n:
        return tree  # disconnected path structure (cannot happen, defensive)

    moves = 0
    while moves < max_moves:
        P = _path_costs(network, order)
        two = _two_opt_best(P)
        orm = _or_opt_best(P)
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
        moves += 1

    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="improve_hamiltonian_path"
        ).inc(moves)
    parents = {order[k + 1]: order[k] for k in range(n - 1)}
    return freeze_parents(network, parents)


def reduce_cost_under_caps(
    tree: AggregationTree, caps: Dict[int, int], *, max_moves: int = 100_000
) -> AggregationTree:
    """Greedy cost descent with children caps as a hard constraint.

    Only accepts strictly cost-decreasing re-parent moves whose target stays
    under its cap, so a cap-feasible input remains cap-feasible throughout.
    """
    state = TreeState.from_tree(tree)
    moves = 0
    caps_arr = _caps_array(caps, state.n)
    while moves < max_moves:
        best = state.best_cost_reparent(
            cand_ok=state.children_counts() < caps_arr, threshold=COST_EPS
        )
        if best is None:
            break
        state.reparent(best[1], best[2], check=False)
        moves += 1
    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="reduce_cost_under_caps"
        ).inc(moves)
    return state.freeze()
