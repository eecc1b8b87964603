"""Output checks: every tree the benchmark gets back is verified here.

The checks recompute everything from the parent map and the network's
PRRs and energies alone, never from the tree object's own methods:

* the parent map spans the network, is rooted at the sink (no cycles) and
  uses only network links;
* ``C = sum(-log q_e)`` and ``Q = prod(q_e)`` over the tree edges in sorted
  key order (the summation order the library reports), and
  ``L = min_v I(v) / E(children(v))``, equal the reported values exactly;
* a tree built under a lifetime bound meets it, to the same relative
  tolerance (1e-9) the library's ``meets_lifetime`` uses.

Each check returns a list of problems; an empty list means the output is
correct.  A workload counts an operation as failed when it has any.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Relative slack of the lifetime-bound check (``AggregationTree.meets_lifetime``).
LC_REL_TOL = 1e-9


def recompute(network, parents: Mapping[int, int]) -> Tuple[float, float, float]:
    """``(C, Q, L)`` of the tree given by *parents* on *network*."""
    keys = sorted((min(v, p), max(v, p)) for v, p in parents.items())
    cost = 0.0
    reliability = 1.0
    for u, v in keys:
        prr = network.edge(u, v).prr
        cost += -math.log(prr)
        reliability *= prr
    children = [0] * network.n
    for p in parents.values():
        children[p] += 1
    model = network.energy_model
    lifetime = min(
        model.lifetime_rounds(network.initial_energy(v), children[v]) for v in range(network.n)
    )
    return cost, reliability, lifetime


def structure_problems(network, parents: Mapping[int, int]) -> List[str]:
    """Spanning, sink-rooted, acyclic, and only over network links."""
    n, sink = network.n, network.sink
    problems: List[str] = []
    if sink in parents:
        problems.append(f"sink {sink} has a parent")
    missing = [v for v in range(n) if v != sink and v not in parents]
    if missing:
        problems.append(f"not spanning: no parent for {missing[:5]}")
    for v, p in parents.items():
        if not (0 <= v < n and 0 <= p < n) or v == p:
            problems.append(f"bad parent entry {v} -> {p}")
        elif not _is_link(network, v, p):
            problems.append(f"tree edge ({v}, {p}) is not a network link")
    if problems:
        return problems
    for start in range(n):
        v, steps = start, 0
        while v != sink:
            v = parents[v]
            steps += 1
            if steps > n:
                return [f"node {start} does not reach the sink (cycle)"]
    return problems


def _is_link(network, u: int, v: int) -> bool:
    # ``Network.edge`` rather than ``has_edge``: the traced run counts
    # ``has_edge`` calls, and the checks must not add to the count.
    try:
        network.edge(u, v)
    except KeyError:
        return False
    return True


def tree_problems(
    network,
    parents: Mapping[int, int],
    reported: Tuple[float, float, float],
    lc: Optional[float] = None,
) -> List[str]:
    """All checks on one tree; *reported* is its ``(C, Q, L)`` as returned."""
    problems = structure_problems(network, parents)
    if problems:
        return problems
    cost, reliability, lifetime = recompute(network, parents)
    for name, mine, theirs in zip("CQL", (cost, reliability, lifetime), reported):
        if repr(float(theirs)) != repr(mine):
            problems.append(f"{name} reported {theirs!r}, recomputed {mine!r}")
    if lc is not None and lifetime < lc * (1.0 - LC_REL_TOL):
        problems.append(f"lifetime {lifetime!r} misses LC {lc!r}")
    return problems


def result_problems(network, result, lc: Optional[float] = None) -> List[str]:
    """:func:`tree_problems` for a :class:`repro.engine.BuildResult`."""
    return tree_problems(
        network,
        dict(result.tree.parents),
        (result.cost, result.reliability, result.lifetime),
        lc,
    )


def served_signature(response) -> str:
    """Parents plus every metric except ``elapsed_s``, floats by ``repr``."""
    parents = ",".join(f"{v}:{p}" for v, p in sorted(response.tree.parents.items()))
    metrics = ",".join(
        f"{k}={_scalar(response.metrics[k])}" for k in sorted(response.metrics) if k != "elapsed_s"
    )
    return f"{response.builder}|{parents}|{metrics}"


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "item"):
        return repr(value.item())
    return repr(value)


def digest(items: Iterable[Tuple[str, Dict[int, int]]]) -> str:
    """SHA-256 over ``(label, parent map)`` pairs, order-independent."""
    lines = sorted(
        label + "|" + ",".join(f"{v}:{p}" for v, p in sorted(parents.items()))
        for label, parents in items
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
