"""Subtour-elimination separation oracle (Padberg–Wolsey minimum cuts).

The Subtour LP (Section IV-A) has exponentially many constraints

    x(E(S)) <= |S| - 1          for all S ⊆ V,

so the cutting-plane solver generates them lazily: given a fractional point
``x``, this oracle either certifies that all subtour constraints hold or
returns violated sets ``S``.

Reduction (Padberg & Wolsey 1983).  Using
``x(E(S)) = (sum_{v in S} x(delta(v)) - x(delta(S))) / 2``, the constraint is
equivalent to ``f(S) := |S| - x(E(S)) >= 1``, and

    f(S) = sum_{v in S} a_v + x(delta(S)) / 2,   a_v = 1 - x(delta(v)) / 2.

Minimising a node-weight-plus-cut objective over sets forced to contain a
chosen root ``r`` is a single s-t minimum cut: positive ``a_v`` becomes an
arc ``v -> t``, negative ``a_v`` becomes an arc ``s -> v`` (plus a constant
offset), each graph edge contributes symmetric arcs of capacity ``x_e / 2``,
and ``s -> r`` gets infinite capacity.  Probing every root finds the global
minimiser; any root whose minimum is below ``1`` yields a violated set.
Singletons always have ``f = 1``, so violated sets have ``|S| >= 2``
automatically.

Two certificates cut the probes without changing the reported sets (proofs
in ``docs/algorithms.md`` §3): a root whose probe shows ``f >= 1 - tol`` on
every set containing it is pinned to the sink for later probes, and probing
stops once peeling nodes of x-degree ``<= 1 + tol/(4n)`` from the unpinned
support leaves at most one node.

The paper invokes exactly this machinery via Theorem 1 (ellipsoid +
separation oracle); in practice cutting planes over HiGHS converge in a few
rounds on these instance sizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.obs import OBS
from repro.utils.maxflow import DinicMaxFlow

__all__ = ["find_violated_subtours", "subtour_violation"]

#: Violations smaller than this are attributed to LP tolerance, not reported.
DEFAULT_TOLERANCE = 1e-7

_BIG = 1e18


def subtour_violation(
    subset: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    x: np.ndarray,
) -> float:
    """Amount by which ``x(E(S)) <= |S| - 1`` is violated for *subset* (<=0 ok)."""
    members = set(subset)
    inside = sum(
        float(x[i]) for i, (u, v) in enumerate(edges) if u in members and v in members
    )
    return inside - (len(members) - 1)


def find_violated_subtours(
    n: int,
    edges: Sequence[Tuple[int, int]],
    x: np.ndarray,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_sets: int = 10,
) -> List[FrozenSet[int]]:
    """Return up to *max_sets* subsets violating the subtour constraints.

    Args:
        n: Number of graph vertices (ids ``0..n-1``).
        edges: Edge endpoint pairs aligned with *x*.
        x: Current fractional LP values, one per edge.
        tolerance: Minimum violation worth reporting.
        max_sets: Cap on returned sets (adding several cuts per round speeds
            up convergence; duplicates are merged).

    Returns an empty list iff ``x`` satisfies every subtour constraint to
    within *tolerance*.
    """
    x = np.asarray(x, dtype=float)
    if len(x) != len(edges):
        raise ValueError(f"{len(edges)} edges but {len(x)} values")
    if n < 2:
        return []

    # Fractional degrees x(delta(v)) over the support.
    degree = np.zeros(n)
    support: List[Tuple[int, int, float]] = []
    neighbours: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if x[i] > 0.0:
            degree[u] += x[i]
            degree[v] += x[i]
            val = float(x[i])
            support.append((u, v, val))
            neighbours[u].append((v, val))
            neighbours[v].append((u, val))

    node_weight = 1.0 - degree / 2.0  # a_v
    offset_base = float(np.sum(np.minimum(node_weight, 0.0)))

    found: Dict[FrozenSet[int], float] = {}
    source, sink = n, n + 1
    # One shared network: per root only the source->root arc changes.
    # The s->v arcs for negative node weights stay; roots get an extra
    # switchable infinite arc, and so do sink pins (see below).
    net = DinicMaxFlow(n + 2)
    for u, v, val in support:
        net.add_edge(u, v, val / 2.0, val / 2.0)
    for v in range(n):
        a_v = node_weight[v]
        if a_v >= 0.0:
            net.add_edge(v, sink, a_v)
        else:
            net.add_edge(source, v, -a_v)
    root_arcs = [net.add_edge(source, v, 0.0) for v in range(n)]
    pin_arcs = [net.add_edge(v, sink, 0.0) for v in range(n)]

    # A root's probe only matters below this flow (f_min >= 1 otherwise),
    # so augmentation can stop early at the threshold.
    cutoff = 1.0 - tolerance - offset_base
    # Peeling a node of degree <= 1 + slack raises f by at most the slack;
    # n peels keep every skipped set's violation below tolerance / 4.
    peel_limit = 1.0 + tolerance / (4 * n)

    unpinned = set(range(n))
    # With at most one survivor up front no set is violated: no probe at all.
    roots = range(n) if _peel_survivors(unpinned, neighbours, peel_limit) >= 2 else ()
    probes = 0
    for root in roots:
        probes += 1
        net.reset_flow()
        net.set_capacity(root_arcs[root], _BIG)
        result = net.solve(source, sink, cutoff=cutoff)
        net.set_capacity(root_arcs[root], 0.0)
        f_min = offset_base + result.flow_value
        if f_min < 1.0 - tolerance:
            subset = frozenset(result.source_side - {source})
            if len(subset) >= 2:
                violation = subtour_violation(sorted(subset), edges, x)
                if violation > tolerance:
                    found[subset] = violation
                    if len(found) >= max_sets:
                        break  # enough cuts for this round
        else:
            # Every set containing root has f >= 1 - tol: pin it to the
            # sink, which leaves every later violated minimiser intact.
            net.set_capacity(pin_arcs[root], _BIG)
            unpinned.discard(root)
            if _peel_survivors(unpinned, neighbours, peel_limit) < 2:
                break  # no violated set avoids the pinned roots

    ranked = sorted(found.items(), key=lambda item: -item[1])
    result_sets = [subset for subset, _ in ranked[:max_sets]]
    if OBS.enabled:
        reg = OBS.registry
        reg.counter("separation.calls").inc()
        reg.counter("separation.root_probes").inc(probes)
        reg.counter("separation.violated_sets").inc(len(result_sets))
        if result_sets:
            OBS.tracer.event(
                "separation.cuts",
                n=n,
                violated=len(result_sets),
                worst_violation=ranked[0][1],
            )
    return result_sets


def _peel_survivors(
    nodes: Set[int], neighbours: List[List[Tuple[int, float]]], limit: float
) -> int:
    """Count the nodes left after repeatedly peeling low-degree ones.

    A node is peeled while its x-degree towards the surviving *nodes* is at
    most *limit*.  Removing such a node from any set raises ``f`` by at most
    ``limit - 1``, so with at most one survivor every ``S ⊆ nodes`` with
    ``|S| >= 2`` has ``f(S) >= 1 - (|S| - 1) * (limit - 1)``.
    """
    inner = {v: sum(val for w, val in neighbours[v] if w in nodes) for v in nodes}
    stack = [v for v, d in inner.items() if d <= limit]
    peeled = set(stack)
    while stack:
        for w, val in neighbours[stack.pop()]:
            if w in inner and w not in peeled:
                inner[w] -= val
                if inner[w] <= limit:
                    peeled.add(w)
                    stack.append(w)
    return len(inner) - len(peeled)
